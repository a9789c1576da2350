#include "src/sample/stratified_sample.h"

#include "src/exec/agg_planner.h"

namespace cvopt {

StratifiedSample::StratifiedSample(const Table* base, std::vector<uint32_t> rows,
                                   std::vector<double> weights, std::string method)
    : base_(base),
      rows_(std::move(rows)),
      weights_(std::move(weights)),
      method_(std::move(method)) {
  CVOPT_CHECK(rows_.size() == weights_.size(), "rows/weights size mismatch");
}

Result<std::shared_ptr<const GroupIndex>> StratifiedSample::GroupIndexFor(
    const std::vector<std::string>& group_by) const {
  // Queries grouping coarser than the stratification overestimate with
  // this prior, which only ever steers the hash-vs-sort choice, never the
  // answer.
  ScopedAggOccupancyHint occupancy(observed_strata());
  const GroupIndexBuildSettings settings =
      GroupIndex::CurrentBuildSettings(rows_.size());
  {
    std::lock_guard<std::mutex> lock(index_cache_.mu);
    for (const IndexCache::Entry& e : index_cache_.entries) {
      if (e.group_by == group_by && e.settings == settings) return e.index;
    }
  }
  // Built outside the lock: a long build never blocks hits on other
  // groupings, and an aborted one leaves the cache untouched.
  CVOPT_ASSIGN_OR_RETURN(GroupIndex built,
                         GroupIndex::BuildForRows(*base_, group_by, rows_));
  auto index = std::make_shared<const GroupIndex>(std::move(built));
  std::lock_guard<std::mutex> lock(index_cache_.mu);
  for (IndexCache::Entry& e : index_cache_.entries) {
    if (e.group_by != group_by) continue;
    if (e.settings == settings) return e.index;  // a concurrent build won
    e.settings = settings;
    e.index = index;
    return index;
  }
  index_cache_.entries.push_back({group_by, settings, index});
  return index;
}

}  // namespace cvopt
