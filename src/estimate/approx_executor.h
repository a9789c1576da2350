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
/// The sample's group index for query.group_by comes from
/// StratifiedSample::GroupIndexFor: the first query with a given GROUP BY
/// list builds it under the caller's QueryContext (fail point
/// exec.group_index.alloc, memory reservation), later ones reuse it and do
/// no group-id build. The answer is bit-identical either way, and safe to
/// compute concurrently on one shared sample.
Result<QueryResult> ExecuteApprox(const StratifiedSample& sample,
                                  const QuerySpec& query);

}  // namespace cvopt

#endif  // CVOPT_ESTIMATE_APPROX_EXECUTOR_H_
