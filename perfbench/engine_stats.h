// The one place the benchmark reads the engine's process-global counters:
// the decoded-chunk cache, the hash-vs-sort aggregation planner, the
// compiled-predicate plan cache and zone-map chunk skipping. Workloads take
// a snapshot before and after the work they measure and use the difference,
// so nothing here resets the engine's counters. When these counters move to
// a per-query profile, only this adapter changes.
#ifndef PERFBENCH_ENGINE_STATS_H_
#define PERFBENCH_ENGINE_STATS_H_

#include <cstdint>

namespace perfbench {

struct EngineCounters {
  uint64_t chunk_hits = 0;
  uint64_t chunk_misses = 0;  // each miss decodes one chunk
  uint64_t chunk_evictions = 0;
  uint64_t planner_hash = 0;
  uint64_t planner_sort = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t zone_chunks = 0;   // chunks classified against zone maps
  uint64_t zone_skipped = 0;  // ... and refuted without decoding

  /// Counts accumulated since `before` (counters only grow).
  EngineCounters Since(const EngineCounters& before) const;
  /// Adds another delta's counts.
  void Add(const EngineCounters& d);

  double chunk_hit_rate() const;
  double plan_cache_hit_rate() const;
  double zone_skip_frac() const;
};

EngineCounters ReadEngineCounters();

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_STATS_H_
