// Single-pass collection of per-stratum statistics for a set of "stat
// sources" (aggregation value streams). This is the offline first pass the
// paper describes in Section 6: "The first pass computes some statistics for
// each group".
#ifndef CVOPT_STATS_STATS_COLLECTOR_H_
#define CVOPT_STATS_STATS_COLLECTOR_H_

#include <cstdint>
#include <vector>

#include "src/core/stratification.h"
#include "src/stats/group_stats.h"
#include "src/table/column.h"

namespace cvopt {

struct QuerySpec;

/// One per-row value stream feeding a stat column:
/// - a numeric column (AVG/SUM aggregates),
/// - a 0/1 indicator vector (COUNT_IF aggregates), or
/// - the constant 1 (COUNT aggregates).
struct StatSource {
  const Column* column = nullptr;
  const std::vector<uint8_t>* indicator = nullptr;
  bool constant_one = false;

  double ValueAt(size_t row) const {
    if (constant_one) return 1.0;
    if (indicator != nullptr) return (*indicator)[row] ? 1.0 : 0.0;
    return column->GetDouble(row);
  }
};

/// Computes RunningStats for every (stratum, source) pair in one pass over
/// the table rows of `strat`, chunked through the shared execution pool.
/// Constant (COUNT) sources read no rows: stratum c's statistics are filled
/// from strat.sizes()[c] as RunningStats::Constant(n_c, 1.0), bit-identical
/// to n_c Add(1.0) calls.
/// The chunking is a pure function of the input shape — never of the
/// resolved thread count — so the chunk-order merged statistics (Chan et
/// al. pairwise merge) are bit-identical for every CVOPT_THREADS value.
/// The chunking does not depend on the number of sources either, so a
/// source collected together with others gets exactly the statistics it
/// gets when collected alone. That invariant feeds the samplers'
/// determinism contract: allocations solved from these statistics, and
/// hence the per-stratum RNG-stream draws, cannot shift with the thread
/// count or with how sources are grouped into calls.
Result<GroupStatsTable> CollectGroupStats(const Stratification& strat,
                                          const std::vector<StatSource>& sources);

/// CollectGroupStats with an explicit worker-count override (<= 0 uses the
/// ExecOptions / CVOPT_THREADS / hardware default). The override bounds the
/// pool fan-out only; the collected statistics are identical either way.
Result<GroupStatsTable> CollectGroupStatsParallel(
    const Stratification& strat, const std::vector<StatSource>& sources,
    int num_threads = 0);

/// The per-stratum statistics of every aggregate of a workload, with each
/// distinct value stream collected once: AVG, SUM, VARIANCE and MEDIAN of a
/// column read one stream, COUNT reads the constant stream, and COUNT_IF
/// reads one stream per distinct filter (keyed by Predicate::Fingerprint,
/// with ToString equality as the collision guard).
class WorkloadStats {
 public:
  /// Where a stream's statistics live: column `column` of table `table`.
  struct StreamRef {
    uint32_t table = 0;
    uint32_t column = 0;
    bool operator==(const StreamRef& o) const {
      return table == o.table && column == o.column;
    }
  };

  /// One query's view: At(c, j) is stratum c's statistics of the query's
  /// aggregate j, looked up through its column map (no copy).
  class QueryStats {
   public:
    QueryStats(const GroupStatsTable* tables, const StreamRef* refs)
        : tables_(tables), refs_(refs) {}
    const RunningStats& At(size_t stratum, size_t agg) const {
      const StreamRef r = refs_[agg];
      return tables_[r.table].At(stratum, r.column);
    }

   private:
    const GroupStatsTable* tables_;
    const StreamRef* refs_;
  };

  QueryStats query(size_t qi) const {
    return QueryStats(tables_.data(), refs_[qi].data());
  }
  /// The stream query qi's aggregate j reads; equal refs are one stream.
  StreamRef stream(size_t qi, size_t agg) const { return refs_[qi][agg]; }

 private:
  friend Result<WorkloadStats> CollectWorkloadStats(
      const Table&, const Stratification&, const std::vector<QuerySpec>&);
  std::vector<GroupStatsTable> tables_;       // one per collecting query
  std::vector<std::vector<StreamRef>> refs_;  // [query][aggregate]
};

/// Binds every query's aggregates against `table` and collects each
/// distinct value stream over `strat` exactly once. Queries are taken in
/// order; each one's not-yet-seen streams are bound (a COUNT_IF indicator is
/// evaluated only by the first query naming its filter) and collected in
/// one CollectGroupStats call. Because collection is independent of which
/// sources share a call, every query sees the statistics that collecting its
/// own aggregates alone would give, bit for bit; and no call reserves more
/// per-chunk partials than collecting that query alone. A bind or collection
/// failure returns the status the first failing query would have returned.
Result<WorkloadStats> CollectWorkloadStats(const Table& table,
                                           const Stratification& strat,
                                           const std::vector<QuerySpec>& queries);

}  // namespace cvopt

#endif  // CVOPT_STATS_STATS_COLLECTOR_H_
