#include "src/exec/agg_planner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cvopt {

namespace {

// Estimated-group threshold above which the sort path is planned. Hash
// probing stays cache-resident (and wins) far below this; around a quarter
// million groups the probe working set outgrows L2 and the sort path's
// sequential counting passes overtake it. The probe extrapolation
// overestimates skewed data by up to ~2x, so the realized crossover sits a
// little below the constant — still deep in huge-G territory.
constexpr uint64_t kSortMinEstimatedGroups = uint64_t{1} << 18;

std::atomic<int> g_path_override{-1};  // -1 none, 0 hash, 1 sort, 2 pin-auto
std::atomic<uint64_t> g_hash_decisions{0};
std::atomic<uint64_t> g_sort_decisions{0};
std::atomic<uint64_t> g_last_estimated{0};
std::atomic<uint64_t> g_last_actual{0};
thread_local size_t t_occupancy_hint = 0;

// CVOPT_AGG_PATH={auto,hash,sort}: operator configuration, read once (the
// knob cannot change mid-process). Malformed values warn once on stderr and
// keep the automatic default, matching the ParseEnvInt convention.
int EnvPathMode() {
  static const int mode = [] {
    const char* v = std::getenv("CVOPT_AGG_PATH");
    if (v == nullptr || *v == '\0' || std::strcmp(v, "auto") == 0) return -1;
    if (std::strcmp(v, "hash") == 0) return 0;
    if (std::strcmp(v, "sort") == 0) return 1;
    std::fprintf(stderr,
                 "cvopt: ignoring CVOPT_AGG_PATH='%s' (want auto|hash|sort)\n",
                 v);
    return -1;
  }();
  return mode;
}

}  // namespace

uint64_t EstimateGroups(const AggPlanInputs& in) {
  uint64_t cap = std::max<uint64_t>(1, in.rows);
  if (in.domain_bound != 0) cap = std::min<uint64_t>(cap, in.domain_bound);
  uint64_t est = in.occupancy_hint;  // a router has already SEEN this many
  if (in.probe_sampled != 0) {
    const uint64_t s = in.probe_sampled;
    const uint64_t d = std::min<uint64_t>(in.probe_distinct, s);
    // Collision-scaled extrapolation: s strided draws over G roughly-even
    // groups see d ≈ G(1 - e^{-s/G}) distinct, inverting to G ≈ d·s/(s-d).
    // An all-distinct probe only bounds G from below, so it falls to the
    // cap. (d, s ≤ the 4k probe size, so the product cannot overflow.)
    est = std::max<uint64_t>(est, d >= s ? cap : d * s / (s - d));
  }
  return std::min(std::max<uint64_t>(est, 1), cap);
}

AggPlanDecision PlanAggPath(const AggPlanInputs& in) {
  AggPlanDecision out;
  out.estimated_groups = EstimateGroups(in);
  g_last_estimated.store(out.estimated_groups, std::memory_order_relaxed);
  const int mode = ForcedAggPath();
  if (mode == -1) {
    out.path = out.estimated_groups >= kSortMinEstimatedGroups
                   ? AggPath::kSort
                   : AggPath::kHash;
  } else {
    out.path = mode == 1 ? AggPath::kSort : AggPath::kHash;
    out.forced = true;
  }
  (out.path == AggPath::kSort ? g_sort_decisions : g_hash_decisions)
      .fetch_add(1, std::memory_order_relaxed);
  return out;
}

int ForcedAggPath() {
  const int mode = g_path_override.load(std::memory_order_relaxed);
  if (mode == 2) return -1;  // pinned auto: skip the env knob entirely
  return mode == -1 ? EnvPathMode() : mode;
}

void SetAggPathOverrideForTesting(int mode) {
  g_path_override.store(mode < 0 ? -1 : std::min(mode, 2),
                        std::memory_order_relaxed);
}

ScopedAggOccupancyHint::ScopedAggOccupancyHint(size_t groups)
    : prev_(t_occupancy_hint) {
  t_occupancy_hint = groups;
}

ScopedAggOccupancyHint::~ScopedAggOccupancyHint() {
  t_occupancy_hint = prev_;
}

size_t CurrentAggOccupancyHint() { return t_occupancy_hint; }

AggPlannerStats GetAggPlannerStats() {
  AggPlannerStats s;
  s.hash_decisions = g_hash_decisions.load(std::memory_order_relaxed);
  s.sort_decisions = g_sort_decisions.load(std::memory_order_relaxed);
  s.last_estimated_groups = g_last_estimated.load(std::memory_order_relaxed);
  s.last_actual_groups = g_last_actual.load(std::memory_order_relaxed);
  return s;
}

void ResetAggPlannerStats() {
  g_hash_decisions.store(0, std::memory_order_relaxed);
  g_sort_decisions.store(0, std::memory_order_relaxed);
  g_last_estimated.store(0, std::memory_order_relaxed);
  g_last_actual.store(0, std::memory_order_relaxed);
}

void RecordAggActualGroups(uint64_t groups) {
  g_last_actual.store(groups, std::memory_order_relaxed);
}

}  // namespace cvopt
