// Adaptive aggregation planner: picks between the hash-probe group-by path
// and the sort-based path (LSD radix sort of packed keys inside the radix
// partitions) from a cardinality estimate. The inputs are all pure
// functions of the data — the strided 4k-row probe, the packed-domain
// bound the zone-map/code scan already computed, and (for streaming
// callers) the router's observed tier occupancy — never of the thread
// count, so the decision is reproducible and both paths stay bit-identical
// by construction (the planner only steers performance).
//
// Resolution order: SetAggPathOverrideForTesting > CVOPT_AGG_PATH env knob
// ({auto, hash, sort}) > the automatic estimate.
#ifndef CVOPT_EXEC_AGG_PLANNER_H_
#define CVOPT_EXEC_AGG_PLANNER_H_

#include <cstddef>
#include <cstdint>

namespace cvopt {

enum class AggPath { kHash, kSort };

/// Decision inputs. Zero means "unknown" for every field except `rows`.
struct AggPlanInputs {
  size_t rows = 0;           // mapped positions in the build
  size_t probe_sampled = 0;  // strided-probe size (0 = probe not run)
  size_t probe_distinct = 0; // distinct groups among the probed positions
  uint64_t domain_bound = 0; // packed-domain product (caps the estimate)
  size_t occupancy_hint = 0; // groups a streaming router has already seen
};

struct AggPlanDecision {
  AggPath path = AggPath::kHash;
  uint64_t estimated_groups = 0;
  bool forced = false;  // an override or the env knob decided, not the data
};

/// Cardinality estimate behind the automatic decision: the larger of the
/// occupancy hint and a collision-scaled extrapolation of the strided
/// probe, capped by min(rows, domain_bound). Exposed for tests.
uint64_t EstimateGroups(const AggPlanInputs& in);

/// Plans the aggregation path and bumps the process-wide decision counters.
AggPlanDecision PlanAggPath(const AggPlanInputs& in);

/// The path the test override or CVOPT_AGG_PATH currently forces: 0 hash,
/// 1 sort, -1 none (the automatic estimate decides).
int ForcedAggPath();

/// Forces the path decision: -1 restores the default resolution, 0 forces
/// hash, 1 forces sort, and 2 pins the AUTO threshold (ignoring
/// CVOPT_AGG_PATH — for tests that assert the automatic decision under an
/// ambient env knob). Wins over CVOPT_AGG_PATH. Not for concurrent use
/// with builds.
void SetAggPathOverrideForTesting(int mode);

/// RAII thread-local occupancy hint: while alive, PlanAggPath treats
/// `groups` as a lower bound on the cardinality — wired by streaming
/// callers that already watched a StreamGroupRouter fill up.
class ScopedAggOccupancyHint {
 public:
  explicit ScopedAggOccupancyHint(size_t groups);
  ~ScopedAggOccupancyHint();
  ScopedAggOccupancyHint(const ScopedAggOccupancyHint&) = delete;
  ScopedAggOccupancyHint& operator=(const ScopedAggOccupancyHint&) = delete;

 private:
  size_t prev_;
};

/// The hint currently in scope on this thread (0 when none).
size_t CurrentAggOccupancyHint();

/// Process-wide planner telemetry, surfaced as bench counters so runs can
/// report which path the planner took and how good the estimate was.
struct AggPlannerStats {
  uint64_t hash_decisions = 0;
  uint64_t sort_decisions = 0;
  uint64_t last_estimated_groups = 0;
  uint64_t last_actual_groups = 0;
};

AggPlannerStats GetAggPlannerStats();
void ResetAggPlannerStats();

/// Records the realized group count of a planned build, paired with
/// last_estimated_groups in the bench counters.
void RecordAggActualGroups(uint64_t groups);

}  // namespace cvopt

#endif  // CVOPT_EXEC_AGG_PLANNER_H_
