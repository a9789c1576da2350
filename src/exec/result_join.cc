#include "src/exec/result_join.h"

namespace cvopt {

Result<QueryResult> JoinResults(
    const QueryResult& a, const QueryResult& b,
    const std::function<double(double, double)>& combine,
    const std::vector<std::string>& out_agg_labels) {
  if (a.num_aggregates() != b.num_aggregates()) {
    return Status::InvalidArgument("joined results have different agg counts");
  }
  if (out_agg_labels.size() != a.num_aggregates()) {
    return Status::InvalidArgument("output label count mismatch");
  }
  QueryResult out(out_agg_labels, a.group_attrs());
  const std::vector<std::optional<size_t>> match = MatchGroups(a, b);
  std::vector<double> vals(a.num_aggregates());
  for (size_t i = 0; i < a.num_groups(); ++i) {
    if (!match[i].has_value()) continue;
    for (size_t t = 0; t < vals.size(); ++t) {
      vals[t] = combine(a.value(i, t), b.value(*match[i], t));
    }
    out.AddGroup(a.key_codes(i), a.label(i), vals.data());
  }
  return out;
}

Result<QueryResult> DiffResults(const QueryResult& a, const QueryResult& b) {
  std::vector<std::string> labels;
  labels.reserve(a.num_aggregates());
  for (const auto& l : a.agg_labels()) labels.push_back("delta " + l);
  return JoinResults(a, b, [](double x, double y) { return x - y; }, labels);
}

}  // namespace cvopt
