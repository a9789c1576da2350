#include "src/exec/query_result.h"

#include <algorithm>

#include "src/util/string_util.h"

namespace cvopt {

void QueryResult::AddGroup(const int64_t* codes, std::string label,
                           const double* values) {
  key_codes_.insert(key_codes_.end(), codes, codes + group_attrs_.size());
  labels_.push_back(std::move(label));
  values_.insert(values_.end(), values, values + agg_labels_.size());
}

Status QueryResult::IngestDense(const GroupIndex& gidx,
                                const std::vector<uint64_t>& counts,
                                const std::vector<double>& finals) {
  const size_t t = agg_labels_.size();
  const size_t G = gidx.num_groups();
  if (counts.size() != G || finals.size() != t * G ||
      gidx.key_arity() != group_attrs_.size()) {
    return Status::InvalidArgument(
        StrFormat("IngestDense: %zu groups of arity %zu, %zu counts, %zu "
                  "finals for %zu aggregates over %zu attributes",
                  G, gidx.key_arity(), counts.size(), finals.size(), t,
                  group_attrs_.size()));
  }
  size_t live = 0;
  for (size_t g = 0; g < G; ++g) live += counts[g] > 0 ? 1 : 0;
  const size_t arity = gidx.key_arity();
  const KeyDicts dicts = KeyDictsOf(gidx.table(), gidx.column_indices());
  key_codes_.reserve(key_codes_.size() + live * arity);
  labels_.reserve(labels_.size() + live);
  values_.reserve(values_.size() + live * t);
  for (size_t g = 0; g < G; ++g) {
    if (counts[g] == 0) continue;  // no surviving rows: group absent
    const size_t at = key_codes_.size();
    gidx.AppendKeyCodes(g, &key_codes_);
    labels_.emplace_back();
    AppendKeyLabel(key_codes_.data() + at, dicts, &labels_.back());
    for (size_t j = 0; j < t; ++j) values_.push_back(finals[j * G + g]);
  }
  return Status::OK();
}

std::optional<size_t> QueryResult::FindByLabel(const std::string& label) const {
  for (size_t i = 0; i < labels_.size(); ++i) {
    if (labels_[i] == label) return i;
  }
  return std::nullopt;
}

std::string QueryResult::ToString(size_t max_groups) const {
  std::string out =
      "group(" + Join(group_attrs_, ",") + ") -> [" + Join(agg_labels_, ", ") + "]\n";
  const size_t n = std::min(max_groups, num_groups());
  const size_t t = agg_labels_.size();
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::string> vals;
    vals.reserve(t);
    for (size_t j = 0; j < t; ++j) vals.push_back(FormatDouble(value(i, j), 4));
    out += "  " + labels_[i] + ": [" + Join(vals, ", ") + "]\n";
  }
  if (n < num_groups()) {
    out += StrFormat("  ... (%zu more)\n", num_groups() - n);
  }
  return out;
}

std::vector<std::optional<size_t>> MatchGroups(const QueryResult& a,
                                               const QueryResult& b) {
  std::vector<std::optional<size_t>> out(a.num_groups());
  const size_t arity = a.group_attrs().size();
  if (arity != b.group_attrs().size()) return out;
  // b's keys are distinct, so routing them first gives b's group i the id
  // i; an a key whose id falls below b.num_groups() is therefore b's group
  // of that id, and any later id is a key b does not hold.
  StreamGroupRouter router(std::vector<DataType>(arity, DataType::kInt64),
                           b.num_groups());
  std::vector<size_t> positions(arity);
  for (size_t j = 0; j < arity; ++j) positions[j] = j;
  std::vector<uint32_t> ids(std::max(a.num_groups(), b.num_groups()));
  RouteKeyColumns(b.key_codes(0), b.num_groups(), arity, positions, &router,
                  ids.data());
  CVOPT_CHECK(router.num_groups() == b.num_groups(),
              "MatchGroups: the second result holds a repeated group key");
  RouteKeyColumns(a.key_codes(0), a.num_groups(), arity, positions, &router,
                  ids.data());
  for (size_t i = 0; i < a.num_groups(); ++i) {
    if (ids[i] < b.num_groups()) out[i] = ids[i];
  }
  return out;
}

}  // namespace cvopt
