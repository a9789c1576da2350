#include "src/sample/stratified_sample.h"

#include <type_traits>

#include "src/exec/agg_planner.h"
#include "src/exec/query_context.h"

namespace cvopt {

namespace {

// Copies column `col` at `rows`: raw values for numeric columns, the base
// codes and dictionary for string columns.
Column GatherColumn(const Column& col, const std::vector<uint32_t>& rows) {
  Column out(col.type());
  auto gather = [&rows](const auto& src) {
    std::vector<typename std::decay_t<decltype(src)>::value_type> v(
        rows.size());
    for (size_t i = 0; i < rows.size(); ++i) v[i] = src[rows[i]];
    return v;
  };
  switch (col.type()) {
    case DataType::kInt64:
      out.AdoptInts(gather(col.ints()));
      break;
    case DataType::kDouble:
      out.AdoptDoubles(gather(col.doubles()));
      break;
    case DataType::kString:
      out.AdoptCodes(gather(col.codes()));
      out.AdoptDictionary(col.dictionary());
      break;
  }
  return out;
}

// Bytes of `col` gathered at n rows, its dictionary included.
uint64_t GatheredBytes(const Column& col, size_t n) {
  if (col.type() != DataType::kString) return n * sizeof(int64_t);
  uint64_t bytes = n * sizeof(int32_t);
  for (const std::string& s : col.dictionary()) {
    bytes += sizeof(std::string) + s.size();
  }
  return bytes;
}

}  // namespace

StratifiedSample::StratifiedSample(const Table* base, std::vector<uint32_t> rows,
                                   std::vector<double> weights, std::string method)
    : base_(base),
      rows_(std::move(rows)),
      weights_(std::move(weights)),
      method_(std::move(method)) {
  CVOPT_CHECK(rows_.size() == weights_.size(), "rows/weights size mismatch");
}

Result<std::shared_ptr<const Table>> StratifiedSample::Gathered() const {
  {
    std::lock_guard<std::mutex> lock(cache_.mu);
    if (cache_.gathered != nullptr) return cache_.gathered;
  }
  // Built outside the lock, like a group index: an aborted build leaves
  // the cache untouched.
  return GovernedSection([&]() -> Result<std::shared_ptr<const Table>> {
    uint64_t bytes = 0;
    for (size_t c = 0; c < base_->num_columns(); ++c) {
      bytes += GatheredBytes(base_->column(c), rows_.size());
    }
    MemoryReservation res = ReserveMemoryOrThrow(bytes, "gathered sample rows");
    std::vector<Column> columns;
    columns.reserve(base_->num_columns());
    for (size_t c = 0; c < base_->num_columns(); ++c) {
      CVOPT_RETURN_NOT_OK(CheckQueryAborted());
      columns.push_back(GatherColumn(base_->column(c), rows_));
    }
    auto table =
        std::make_shared<const Table>(base_->schema(), std::move(columns));
    std::lock_guard<std::mutex> lock(cache_.mu);
    if (cache_.gathered == nullptr) cache_.gathered = std::move(table);
    return cache_.gathered;  // this build's, or a concurrent winner's
  });
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
    std::lock_guard<std::mutex> lock(cache_.mu);
    for (const QueryCache::Entry& e : cache_.entries) {
      if (e.group_by == group_by && e.settings == settings) return e.index;
    }
  }
  // Built outside the lock: a long build never blocks hits on other
  // groupings, and an aborted one leaves the cache untouched. The index
  // shares ownership of the table it reads its keys from.
  CVOPT_ASSIGN_OR_RETURN(std::shared_ptr<const Table> table, Gathered());
  CVOPT_ASSIGN_OR_RETURN(GroupIndex built, GroupIndex::Build(*table, group_by));
  struct Indexed {
    std::shared_ptr<const Table> table;
    GroupIndex index;
  };
  auto owner = std::make_shared<const Indexed>(
      Indexed{std::move(table), std::move(built)});
  std::shared_ptr<const GroupIndex> index(owner, &owner->index);
  std::lock_guard<std::mutex> lock(cache_.mu);
  for (QueryCache::Entry& e : cache_.entries) {
    if (e.group_by != group_by) continue;
    if (e.settings == settings) return e.index;  // a concurrent build won
    e.settings = settings;
    e.index = index;
    return index;
  }
  cache_.entries.push_back({group_by, settings, index});
  return index;
}

}  // namespace cvopt
