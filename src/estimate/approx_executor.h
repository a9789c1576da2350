// Approximate query execution over a weighted sample. Every sampled row
// carries a Horvitz–Thompson expansion weight, so SUM/COUNT/COUNT_IF are
// estimated by weighted sums and AVG by the ratio estimator — which is what
// lets one materialized sample serve runtime predicates and regroupings
// (Section 6.3 of the paper).
#ifndef CVOPT_ESTIMATE_APPROX_EXECUTOR_H_
#define CVOPT_ESTIMATE_APPROX_EXECUTOR_H_

#include "src/exec/query.h"
#include "src/exec/query_result.h"
#include "src/sample/stratified_sample.h"

namespace cvopt {

/// Answers the query from the sample. Groups with no sampled rows passing
/// the predicate are absent from the result (the estimator cannot see them);
/// error reporting charges such misses as 100% error.
///
/// The query reads only the sample's own state, never the base table after
/// the sample's first query: StratifiedSample::Gathered, the sampled rows
/// copied once into a contiguous table (base codes and dictionaries kept),
/// and StratifiedSample::GroupIndexFor, the group index over it for
/// query.group_by. WHERE and COUNT_IF predicates compile against the
/// gathered table and select sample positions directly; values are read at
/// position i. The first query builds what is missing under the caller's
/// QueryContext (memory reservations for the gathered rows and the index,
/// fail point exec.group_index.alloc); later ones reuse both and do no
/// gather and no group-id build. The answer is bit-identical either way,
/// and safe to compute concurrently on one shared sample.
///
/// Accumulation is the exact executor's kernel, weighted:
/// AccumulateGrouped over the gathered table with the sample's weights, then
/// FinalizeGrouped and IngestDense. So it reserves its accumulator slabs
/// behind the fail point exec.groupby.alloc, like ExecuteExact. Each
/// surviving position adds w*v to a sum, (w*v)*v to a second moment and w
/// to its group's weight sum; COUNT is the weight sum, AVG and VARIANCE
/// divide by it where it is > 0, MEDIAN is the weighted median of groups
/// with a surviving position. At one thread, and on a partitioned index at
/// any thread count, positions are added in ascending order, so the answer
/// equals the serial loop bit for bit; the chunk-merged path adds per-chunk
/// sums in chunk order.
Result<QueryResult> ExecuteApprox(const StratifiedSample& sample,
                                  const QuerySpec& query);

}  // namespace cvopt

#endif  // CVOPT_ESTIMATE_APPROX_EXECUTOR_H_
