// Exact group-by execution over the full table — the ground truth every
// sampling method is measured against — and the one accumulation kernel
// the approximate executor shares with it: an approximate answer is the
// exact group-by over the sample with a Horvitz–Thompson weight column.
#ifndef CVOPT_EXEC_GROUP_BY_EXECUTOR_H_
#define CVOPT_EXEC_GROUP_BY_EXECUTOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/exec/group_index.h"
#include "src/exec/query.h"
#include "src/exec/query_result.h"
#include "src/table/table.h"

namespace cvopt {

/// Runs the query exactly over every row of the table. Groups with no rows
/// passing the WHERE predicate are omitted (SQL semantics). For AVG on an
/// empty selection within a group the group is likewise omitted.
Result<QueryResult> ExecuteExact(const Table& table, const QuerySpec& query);

/// Raw per-group accumulators of a query's aggregates over a dense
/// grouping — the shared middle of ExecuteExact, ExecuteApprox and
/// ExecuteCube. Counts are integers (bit-exact for every chunking);
/// sums/sums2 are aggregate-major slabs. A weighted pass also fills wcnt
/// and keeps MEDIAN (value, weight) pairs; an unweighted one leaves wcnt
/// empty and keeps MEDIAN values. Per-group buffer order equals the serial
/// ascending-position order.
struct GroupedAccumulators {
  size_t num_groups = 0;
  std::vector<uint64_t> cnt;  // per-group surviving-row counts
  std::vector<double> wcnt;   // per-group weight sums; empty if unweighted
  std::vector<double> sums;   // aggregate-major: sums[j * G + g]
  std::vector<double> sums2;  // empty unless a VARIANCE aggregate is present
  std::vector<std::vector<std::vector<double>>> median_values;  // [agg][group]
  std::vector<std::vector<std::vector<std::pair<double, double>>>>
      median_pairs;  // [agg][group], weighted passes only
};

/// Accumulates the query's aggregates over the rows of `gidx` (which must
/// be built over `table` with the query's grouping). `sel` is the surviving
/// row selection under the query's WHERE clause, or null for an unmasked
/// pass. Passes over a partitioned GroupIndex accumulate into
/// partition-owned slabs (each worker owns a disjoint group range — no
/// cross-chunk merge, and per-group sums equal the serial ascending-row
/// sums exactly); otherwise the chunk-order merged morsel path runs. The
/// slabs are reserved against the query's memory budget behind the fail
/// point exec.groupby.alloc.
Result<GroupedAccumulators> AccumulateGrouped(const Table& table,
                                              const QuerySpec& query,
                                              const GroupIndex& gidx,
                                              const std::vector<uint32_t>* sel);

/// The weighted pass over a sample (ExecuteApprox), same kernel, fail
/// point and visiting order: `table` holds the sampled rows contiguously
/// (StratifiedSample::Gathered), `gidx` is built over it, and position i
/// carries weight weights[i]. A surviving position adds w to wcnt, w*v to
/// sums, (w*v)*v to sums2 and (v, w) to a MEDIAN's pairs; chunk-merged
/// passes merge wcnt in chunk order like the sums. The weight is a
/// compile-time policy: the unweighted form above runs the plain exact
/// loops.
Result<GroupedAccumulators> AccumulateGrouped(
    const Table& table, const QuerySpec& query, const GroupIndex& gidx,
    const std::vector<uint32_t>* sel, const std::vector<double>& weights);

/// Finalizes raw accumulators into the aggregate-major finals array
/// finals[j * G + g]. Unweighted: AVG/VARIANCE divide by cnt, COUNT is cnt,
/// MEDIAN the midpoint median. Weighted: AVG/VARIANCE divide by wcnt where
/// wcnt > 0, COUNT is wcnt, MEDIAN the weighted median of groups with
/// cnt > 0. SUM and COUNT_IF are the sums either way. Consumes the MEDIAN
/// buffers.
std::vector<double> FinalizeGrouped(const std::vector<AggSpec>& aggs,
                                    GroupedAccumulators* acc);

/// Finalizes `acc` and bulk-ingests it through `gidx` (groups with
/// cnt == 0 are omitted): the result of ExecuteExact and ExecuteApprox.
Result<QueryResult> MaterializeGrouped(const QuerySpec& query,
                                       const GroupIndex& gidx,
                                       GroupedAccumulators* acc);

/// One aggregate's input over raw storage: COUNT_IF indicator bytes, or a
/// double / int64 column.
struct ValueStream {
  enum Kind { kIndicator, kDouble, kInt64 };
  Kind kind;
  const void* data;
};

/// The value-stream dispatch of every accumulation loop, hoisted out of the
/// row loop: calls add(value_of) once, where value_of(i) is the input at
/// row i — an indicator byte or a column value. Each stream kind
/// instantiates its own specialized loop.
template <class Add>
void VisitValueStream(const ValueStream& vs, Add&& add) {
  switch (vs.kind) {
    case ValueStream::kIndicator: {
      const auto* ind = static_cast<const uint8_t*>(vs.data);
      add([ind](size_t i) { return ind[i] ? 1.0 : 0.0; });
      break;
    }
    case ValueStream::kDouble: {
      const auto* vals = static_cast<const double*>(vs.data);
      add([vals](size_t i) { return vals[i]; });
      break;
    }
    case ValueStream::kInt64: {
      const auto* vals = static_cast<const int64_t*>(vs.data);
      add([vals](size_t i) { return static_cast<double>(vals[i]); });
      break;
    }
  }
}

}  // namespace cvopt

#endif  // CVOPT_EXEC_GROUP_BY_EXECUTOR_H_
