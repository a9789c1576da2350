#include "src/exec/aggregate.h"

#include "src/exec/parallel.h"
#include "src/expr/compiled_predicate.h"
#include "src/expr/plan_cache.h"

namespace cvopt {

const char* AggFuncToString(AggFunc f) {
  switch (f) {
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kCountIf:
      return "COUNT_IF";
    case AggFunc::kVariance:
      return "VAR";
    case AggFunc::kMedian:
      return "MEDIAN";
  }
  return "?";
}

std::string AggSpec::Label() const {
  switch (func) {
    case AggFunc::kAvg:
    case AggFunc::kSum:
    case AggFunc::kVariance:
    case AggFunc::kMedian:
      return std::string(AggFuncToString(func)) + "(" + column + ")";
    case AggFunc::kCount:
      return "COUNT(*)";
    case AggFunc::kCountIf:
      return "COUNT_IF(" + (filter ? filter->ToString() : "?") + ")";
  }
  return "?";
}

Result<StatSource> BindValueStream(
    const Table& table, const AggSpec& agg,
    std::unique_ptr<std::vector<uint8_t>>* indicator) {
  StatSource src;
  switch (agg.func) {
    case AggFunc::kAvg:
    case AggFunc::kSum:
    case AggFunc::kVariance:
    case AggFunc::kMedian: {
      CVOPT_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(agg.column));
      if (col->type() == DataType::kString) {
        return Status::InvalidArgument("cannot aggregate string column '" +
                                       agg.column + "'");
      }
      src.column = col;
      break;
    }
    case AggFunc::kCount:
      src.constant_one = true;
      break;
    case AggFunc::kCountIf: {
      if (agg.filter == nullptr) {
        return Status::InvalidArgument("COUNT_IF requires a filter predicate");
      }
      // Indicator materializes through the compiled kernel plan (cached per
      // table + filter, morsel-parallel over disjoint mask ranges); the
      // stats collector and executors then stream it as a value source.
      CVOPT_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPredicate> filter,
                             CompilePredicateCached(table, agg.filter));
      *indicator = std::make_unique<std::vector<uint8_t>>(table.num_rows());
      ParallelEvalMask(*filter, table.num_rows(), (*indicator)->data());
      src.indicator = indicator->get();
      break;
    }
  }
  return src;
}

Result<BoundAggregates> BoundAggregates::Bind(const Table& table,
                                              const std::vector<AggSpec>& aggs) {
  BoundAggregates out;
  out.sources_.reserve(aggs.size());
  for (const auto& agg : aggs) {
    std::unique_ptr<std::vector<uint8_t>> indicator;
    CVOPT_ASSIGN_OR_RETURN(StatSource src,
                           BindValueStream(table, agg, &indicator));
    if (indicator != nullptr) out.indicators_.push_back(std::move(indicator));
    out.sources_.push_back(src);
  }
  return out;
}

}  // namespace cvopt
