#include "src/estimate/approx_executor.h"

#include "src/exec/group_by_executor.h"
#include "src/exec/group_index.h"
#include "src/exec/query_context.h"
#include "src/expr/compiled_predicate.h"
#include "src/expr/plan_cache.h"

namespace cvopt {

Result<QueryResult> ExecuteApprox(const StratifiedSample& sample,
                                  const QuerySpec& query) {
 return GovernedSection([&]() -> Result<QueryResult> {
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  CVOPT_RETURN_NOT_OK(CheckQueryAborted());
  // The sampled rows, gathered into one contiguous table on the sample's
  // first query; position i is sample position i, so nothing below reads
  // the base table.
  CVOPT_ASSIGN_OR_RETURN(std::shared_ptr<const Table> table, sample.Gathered());

  // Dense group ids over the sample positions. The sample builds the index
  // on the first query with this GROUP BY list and hands the same one to
  // every later query.
  CVOPT_ASSIGN_OR_RETURN(std::shared_ptr<const GroupIndex> gidx,
                         sample.GroupIndexFor(query.group_by));

  // WHERE compiles to typed kernels (cached per table + predicate) and
  // selects surviving sample positions directly (no per-position byte mask
  // on the query path).
  const bool use_sel = query.where != nullptr;
  std::vector<uint32_t> sel;
  if (use_sel) {
    CVOPT_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPredicate> where,
                           CompilePredicateCached(*table, query.where));
    sel = where->SelectPositions(nullptr, table->num_rows());
  }

  // The exact executor's kernel with the Horvitz–Thompson weight column.
  CVOPT_ASSIGN_OR_RETURN(
      GroupedAccumulators acc,
      AccumulateGrouped(*table, query, *gidx, use_sel ? &sel : nullptr,
                        sample.weights()));
  // Groups emit in first-occurrence-over-sampled-rows order; under a WHERE
  // clause this may differ from the legacy first-surviving-row order.
  return MaterializeGrouped(query, *gidx, &acc);
 });
}

}  // namespace cvopt
