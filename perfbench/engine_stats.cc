#include "perfbench/engine_stats.h"

#include "src/exec/agg_planner.h"
#include "src/expr/compiled_predicate.h"
#include "src/expr/plan_cache.h"
#include "src/table/mapped_table.h"

namespace perfbench {

namespace {

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

EngineCounters ReadEngineCounters() {
  const cvopt::ChunkCacheStats chunks = cvopt::GetChunkCacheStats();
  const cvopt::AggPlannerStats planner = cvopt::GetAggPlannerStats();
  const cvopt::PlanCacheStats plans = cvopt::GetPlanCacheStats();
  const cvopt::ZoneSkipStats zones = cvopt::GetZoneSkipStats();
  EngineCounters c;
  c.chunk_hits = chunks.hits;
  c.chunk_misses = chunks.misses;
  c.chunk_evictions = chunks.evictions;
  c.planner_hash = planner.hash_decisions;
  c.planner_sort = planner.sort_decisions;
  c.plan_cache_hits = plans.hits;
  c.plan_cache_misses = plans.misses;
  c.zone_chunks = zones.chunks;
  c.zone_skipped = zones.skipped;
  return c;
}

EngineCounters EngineCounters::Since(const EngineCounters& before) const {
  EngineCounters d;
  d.chunk_hits = chunk_hits - before.chunk_hits;
  d.chunk_misses = chunk_misses - before.chunk_misses;
  d.chunk_evictions = chunk_evictions - before.chunk_evictions;
  d.planner_hash = planner_hash - before.planner_hash;
  d.planner_sort = planner_sort - before.planner_sort;
  d.plan_cache_hits = plan_cache_hits - before.plan_cache_hits;
  d.plan_cache_misses = plan_cache_misses - before.plan_cache_misses;
  d.zone_chunks = zone_chunks - before.zone_chunks;
  d.zone_skipped = zone_skipped - before.zone_skipped;
  return d;
}

void EngineCounters::Add(const EngineCounters& d) {
  chunk_hits += d.chunk_hits;
  chunk_misses += d.chunk_misses;
  chunk_evictions += d.chunk_evictions;
  planner_hash += d.planner_hash;
  planner_sort += d.planner_sort;
  plan_cache_hits += d.plan_cache_hits;
  plan_cache_misses += d.plan_cache_misses;
  zone_chunks += d.zone_chunks;
  zone_skipped += d.zone_skipped;
}

double EngineCounters::chunk_hit_rate() const {
  return Ratio(chunk_hits, chunk_hits + chunk_misses);
}

double EngineCounters::plan_cache_hit_rate() const {
  return Ratio(plan_cache_hits, plan_cache_hits + plan_cache_misses);
}

double EngineCounters::zone_skip_frac() const {
  return Ratio(zone_skipped, zone_chunks);
}

}  // namespace perfbench
