// QueryResult: the (group -> aggregate values) answer of a group-by query,
// from either the exact engine or a sample-based estimator.
#ifndef CVOPT_EXEC_QUERY_RESULT_H_
#define CVOPT_EXEC_QUERY_RESULT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/exec/group_index.h"
#include "src/util/status.h"

namespace cvopt {

/// Answer of one group-by query: an ordered list of groups, each with a
/// flat key, a rendered label and one value per aggregate.
///
/// Keys live in one flat row-major code array (stride = key arity =
/// group_attrs().size(), one int64 per grouping attribute as in
/// group_index.h) and values in another (stride = number of aggregates),
/// so many-group results are appended with no per-group heap allocation
/// beyond the label.
///
/// A QueryResult is a value: it is filled once through IngestDense /
/// AddGroup and then only read. It holds no lazy or mutable state, so
/// concurrent reads through the const accessors are safe. Keys within one
/// result are distinct; the builders rely on their callers for that
/// (every engine path emits one group per dense id) and do not check it.
/// Results are aligned by key with MatchGroups.
class QueryResult {
 public:
  QueryResult() = default;
  QueryResult(std::vector<std::string> agg_labels,
              std::vector<std::string> group_attrs)
      : agg_labels_(std::move(agg_labels)),
        group_attrs_(std::move(group_attrs)) {}

  /// Appends one group: key_arity() key codes, its rendered label and
  /// num_aggregates() values.
  void AddGroup(const int64_t* codes, std::string label, const double* values);

  /// Bulk-ingests the dense-id pipeline's output: one result group per
  /// index g with counts[g] > 0, in id order, with key codes copied flat
  /// from `gidx`, labels rendered by AppendKeyLabel, and values gathered
  /// from the aggregate-major accumulator array finals[j * G + g]
  /// (G = gidx.num_groups(), j < num_aggregates()). The index must group
  /// by group_attrs().
  Status IngestDense(const GroupIndex& gidx,
                     const std::vector<uint64_t>& counts,
                     const std::vector<double>& finals);

  size_t num_groups() const { return labels_.size(); }
  size_t num_aggregates() const { return agg_labels_.size(); }

  /// Group i's key codes: key_arity(i) of them.
  const int64_t* key_codes(size_t i) const {
    return key_codes_.data() + i * group_attrs_.size();
  }
  /// Codes per key: the same for every group (the grouping arity).
  size_t key_arity(size_t /*i*/) const { return group_attrs_.size(); }

  const std::string& label(size_t i) const { return labels_[i]; }
  /// Copy of group i's aggregate values (row slice of the flat array).
  std::vector<double> values(size_t i) const {
    const size_t t = agg_labels_.size();
    return std::vector<double>(values_.begin() + i * t,
                               values_.begin() + (i + 1) * t);
  }
  double value(size_t i, size_t agg) const {
    return values_[i * agg_labels_.size() + agg];
  }

  const std::vector<std::string>& agg_labels() const { return agg_labels_; }
  const std::vector<std::string>& group_attrs() const { return group_attrs_; }

  /// Index of a group by its rendered label, if present (tests/examples).
  std::optional<size_t> FindByLabel(const std::string& label) const;

  std::string ToString(size_t max_groups = 20) const;

 private:
  std::vector<std::string> agg_labels_;
  std::vector<std::string> group_attrs_;
  std::vector<std::string> labels_;
  std::vector<int64_t> key_codes_;  // row-major, stride = group_attrs_.size()
  std::vector<double> values_;      // row-major, stride = agg_labels_.size()
};

/// Aligns two results by key: entry i is the index in `b` of the group of
/// `a` with a's i-th key, or nullopt when `b` has no such group (always so
/// when the key arities differ). Key codes are compared verbatim, so both
/// results must draw their string codes from the same dictionaries. Aborts
/// when `b` holds a repeated key, which no engine result does.
std::vector<std::optional<size_t>> MatchGroups(const QueryResult& a,
                                               const QueryResult& b);

}  // namespace cvopt

#endif  // CVOPT_EXEC_QUERY_RESULT_H_
