#include "src/stats/stats_collector.h"

#include <algorithm>
#include <memory>
#include <string>

#include "src/exec/aggregate.h"
#include "src/exec/parallel.h"
#include "src/exec/query.h"
#include "src/exec/query_context.h"

namespace cvopt {

namespace {

Status ValidateSources(const Stratification& strat,
                       const std::vector<StatSource>& sources) {
  const size_t n = strat.table().num_rows();
  for (const auto& s : sources) {
    if (!s.constant_one && s.column == nullptr && s.indicator == nullptr) {
      return Status::InvalidArgument("StatSource has no value stream");
    }
    if (s.indicator != nullptr && s.indicator->size() != n) {
      return Status::InvalidArgument("indicator length does not match table");
    }
    if (s.column != nullptr && s.column->type() == DataType::kString) {
      return Status::InvalidArgument("cannot aggregate a string column");
    }
  }
  return Status::OK();
}

// The one value-stream dispatch (constant / indicator / column type),
// hoisted out of every row loop: calls add_all with a specialized value_at.
template <class AddAll>
void WithSourceValues(const StatSource& src, AddAll&& add_all) {
  if (src.constant_one) {
    add_all([](size_t) { return 1.0; });
  } else if (src.indicator != nullptr) {
    const uint8_t* ind = src.indicator->data();
    add_all([ind](size_t r) { return ind[r] ? 1.0 : 0.0; });
  } else if (src.column->type() == DataType::kDouble) {
    const double* vals = src.column->doubles().data();
    add_all([vals](size_t r) { return vals[r]; });
  } else {
    const int64_t* vals = src.column->ints().data();
    add_all([vals](size_t r) { return static_cast<double>(vals[r]); });
  }
}

// One pass over rows [lo, hi) for a single source: the row-scan order.
void AccumulateSource(const uint32_t* row_strata, size_t lo, size_t hi,
                      const StatSource& src, size_t j, GroupStatsTable* out) {
  WithSourceValues(src, [&](auto value_at) {
    for (size_t r = lo; r < hi; ++r) {
      const uint32_t s = row_strata[r];
      // Filtered stratifications mark excluded rows with kNoStratum; the
      // branch is never taken (and predicted away) on unfiltered builds.
      if (s == Stratification::kNoStratum) continue;
      out->At(s, j).Add(value_at(r));
    }
  });
}

// The list-ordered twin of AccumulateSource: walks the stratification's
// per-stratum row lists restricted to table-row range [lo, hi) (the whole
// table when `whole`). Each (stratum, source) RunningStats receives exactly
// the Add sequence of the row scan — that stratum's rows in ascending row
// order within the chunk — so the collected statistics are bit-identical;
// only the iteration order ACROSS strata changes, which keeps each target
// RunningStats hot across its whole run instead of bouncing per row. Used
// when the stratification already carries the lists (a partitioned build,
// or a consumer materialized them); the sampler determinism contract is
// unaffected because the merged values are identical to the row scan's.
void AccumulateSourceLists(const uint32_t* srows, const size_t* sbase,
                           size_t strata, size_t lo, size_t hi, bool whole,
                           const StatSource& src, size_t j,
                           GroupStatsTable* out) {
  WithSourceValues(src, [&](auto value_at) {
    for (size_t s = 0; s < strata; ++s) {
      const uint32_t* b = srows + sbase[s];
      const uint32_t* e = srows + sbase[s + 1];
      if (!whole) {
        b = std::lower_bound(b, e, static_cast<uint32_t>(lo));
        e = std::lower_bound(b, e, static_cast<uint32_t>(hi));
      }
      if (b == e) continue;
      RunningStats& rs = out->At(s, j);
      for (const uint32_t* it = b; it != e; ++it) {
        rs.Add(value_at(static_cast<size_t>(*it)));
      }
    }
  });
}

// What an aggregate's value stream reads. AVG, SUM, VARIANCE and MEDIAN of
// a column read the column; COUNT reads the constant 1; COUNT_IF reads its
// filter's indicator, identified by the filter's structural fingerprint
// with the rendered form as the collision guard (as the plan cache keys).
struct StreamKey {
  enum class Kind { kColumn, kConstant, kIndicator } kind = Kind::kConstant;
  std::string name;  // column name, or the filter's ToString()
  uint64_t fingerprint = 0;

  bool operator==(const StreamKey& o) const {
    return kind == o.kind && fingerprint == o.fingerprint && name == o.name;
  }
};

StreamKey KeyOf(const AggSpec& agg) {
  StreamKey key;
  switch (agg.func) {
    case AggFunc::kAvg:
    case AggFunc::kSum:
    case AggFunc::kVariance:
    case AggFunc::kMedian:
      key.kind = StreamKey::Kind::kColumn;
      key.name = agg.column;
      break;
    case AggFunc::kCount:
      key.kind = StreamKey::Kind::kConstant;
      break;
    case AggFunc::kCountIf:
      key.kind = StreamKey::Kind::kIndicator;
      if (agg.filter != nullptr) {  // else binding reports the error
        key.fingerprint = agg.filter->Fingerprint();
        key.name = agg.filter->ToString();
      }
      break;
  }
  return key;
}

// Deterministic chunk count for the statistics pass: a pure function of the
// input shape (rows, strata), never of the resolved thread count or the
// ExecOptions morsel grain. The samplers' determinism contract (seed ->
// sample, independent of CVOPT_THREADS) requires it: CVOPT / RL allocations
// solve from these statistics, and a last-ulp difference in a merged
// variance can move an integral allocation boundary — so the chunk-order
// merge must produce bit-identical numbers for every thread count, with the
// pool's capped workers claiming the fixed chunks dynamically.
size_t DeterministicStatChunks(size_t n, size_t strata) {
  constexpr size_t kGrain = 8192;   // amortizes per-chunk table setup
  // Every chunk beyond the first costs strata * sources division-heavy
  // RunningStats::Merge calls even when the pass runs on one thread, so
  // the fixed fan-out stays small; 16 chunks keep the serial overhead a
  // few percent while feeding realistic thread counts.
  constexpr size_t kMaxChunks = 16;
  size_t chunks = std::min(n / kGrain, kMaxChunks);
  if (strata > 0) {
    // Merging costs chunks * strata RunningStats::Merge calls; cap the
    // chunk count where accumulator traffic would rival the row scan (the
    // AggregationChunks rule, without its thread-count dependence).
    chunks = std::min(chunks, n / (4 * strata));
  }
  return std::max<size_t>(1, chunks);
}

// Fills every constant (COUNT) source's column from the stratum sizes:
// RunningStats::Constant(n_c, 1.0) is bit-identical to the n_c Add(1.0)
// calls a row pass would make, merged across any chunking.
void FillConstantSources(const Stratification& strat,
                         const std::vector<StatSource>& sources,
                         GroupStatsTable* stats) {
  const std::vector<uint64_t>& sizes = strat.sizes();
  for (size_t j = 0; j < sources.size(); ++j) {
    if (!sources[j].constant_one) continue;
    for (size_t c = 0; c < sizes.size(); ++c) {
      stats->At(c, j) = RunningStats::Constant(sizes[c], 1.0);
    }
  }
}

// Shared collection core: accumulate per-chunk GroupStatsTables over a
// thread-count-independent chunking and merge them in chunk order (Chan et
// al. pairwise merge). `num_threads` only bounds the pool fan-out (0 = the
// ExecOptions / CVOPT_THREADS default); the merged statistics are
// bit-identical for every value. One chunk runs the serial loop inline with
// no partials. When the stratification already carries per-stratum row
// lists (partitioned builds), the accumulation walks the lists instead of
// re-scanning row_strata — same chunk boundaries, same per-(stratum,
// source, chunk) Add sequences, identical output. Constant sources skip the
// row loops and are filled from the stratum sizes.
Result<GroupStatsTable> CollectImpl(const Stratification& strat,
                                    const std::vector<StatSource>& sources,
                                    int num_threads) {
 return GovernedSection([&]() -> Result<GroupStatsTable> {
  CVOPT_RETURN_NOT_OK(ValidateSources(strat, sources));
  CVOPT_RETURN_NOT_OK(CheckQueryAborted());
  const size_t n = strat.table().num_rows();
  const size_t strata = strat.num_strata();
  const uint32_t* row_strata = strat.row_strata().data();
  const bool use_lists = strat.stratum_rows_cheap();
  const uint32_t* srows = nullptr;
  const size_t* sbase = nullptr;
  if (use_lists) {
    srows = strat.stratum_rows().data();
    sbase = strat.stratum_row_base().data();
  }
  // Accumulates the row-reading sources over table rows [lo, hi).
  auto accumulate = [&](size_t lo, size_t hi, bool whole,
                        GroupStatsTable* out) {
    for (size_t j = 0; j < sources.size(); ++j) {
      if (sources[j].constant_one) continue;
      if (use_lists) {
        AccumulateSourceLists(srows, sbase, strata, lo, hi, whole, sources[j],
                              j, out);
      } else {
        AccumulateSource(row_strata, lo, hi, sources[j], j, out);
      }
    }
  };
  const size_t chunks = DeterministicStatChunks(n, strata);
  GroupStatsTable stats;
  if (chunks <= 1) {
    stats = GroupStatsTable(strata, sources.size());
    accumulate(0, n, /*whole=*/true, &stats);
  } else {
    MemoryReservation partials_res = ReserveMemoryOrThrow(
        chunks * strata * sources.size() * sizeof(RunningStats),
        "per-chunk statistics tables");
    std::vector<GroupStatsTable> partials(
        chunks, GroupStatsTable(strata, sources.size()));
    ParallelForChunks(
        n, chunks,
        [&](size_t c, size_t lo, size_t hi) {
          accumulate(lo, hi, /*whole=*/false, &partials[c]);
        },
        num_threads);
    stats = std::move(partials[0]);
    for (size_t c = 1; c < chunks; ++c) {
      CVOPT_RETURN_NOT_OK(stats.Merge(partials[c]));
    }
  }
  FillConstantSources(strat, sources, &stats);
  return stats;
 });
}

}  // namespace

Result<GroupStatsTable> CollectGroupStats(
    const Stratification& strat, const std::vector<StatSource>& sources) {
  return CollectImpl(strat, sources, 0);
}

Result<GroupStatsTable> CollectGroupStatsParallel(
    const Stratification& strat, const std::vector<StatSource>& sources,
    int num_threads) {
  return CollectImpl(strat, sources, num_threads);
}

Result<WorkloadStats> CollectWorkloadStats(
    const Table& table, const Stratification& strat,
    const std::vector<QuerySpec>& queries) {
  WorkloadStats out;
  out.refs_.resize(queries.size());
  // Every stream seen so far, in first-seen order, and where it lives.
  std::vector<StreamKey> seen;
  std::vector<WorkloadStats::StreamRef> seen_refs;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const std::vector<AggSpec>& aggs = queries[qi].aggregates;
    const uint32_t table_id = static_cast<uint32_t>(out.tables_.size());
    // This query's new streams: bound here, collected in one call below.
    std::vector<StatSource> fresh;
    std::vector<std::unique_ptr<std::vector<uint8_t>>> indicators;
    std::vector<WorkloadStats::StreamRef>& refs = out.refs_[qi];
    refs.reserve(aggs.size());
    for (const AggSpec& agg : aggs) {
      const StreamKey key = KeyOf(agg);
      const auto it = std::find(seen.begin(), seen.end(), key);
      if (it != seen.end()) {
        refs.push_back(seen_refs[it - seen.begin()]);
        continue;
      }
      std::unique_ptr<std::vector<uint8_t>> indicator;
      CVOPT_ASSIGN_OR_RETURN(StatSource src,
                             BindValueStream(table, agg, &indicator));
      if (indicator != nullptr) indicators.push_back(std::move(indicator));
      seen.push_back(key);
      seen_refs.push_back({table_id, static_cast<uint32_t>(fresh.size())});
      refs.push_back(seen_refs.back());
      fresh.push_back(src);
    }
    if (fresh.empty()) continue;
    CVOPT_ASSIGN_OR_RETURN(GroupStatsTable stats,
                           CollectGroupStats(strat, fresh));
    out.tables_.push_back(std::move(stats));
  }
  return out;
}

}  // namespace cvopt
