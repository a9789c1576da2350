// StratifiedSample: a materialized random sample with per-row Horvitz–
// Thompson weights. This is the artifact the offline phase produces and the
// online phase queries; because rows carry scale-up weights, the same sample
// answers queries with runtime predicates and new groupings (Section 6.3).
#ifndef CVOPT_SAMPLE_STRATIFIED_SAMPLE_H_
#define CVOPT_SAMPLE_STRATIFIED_SAMPLE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/stratification.h"
#include "src/exec/group_index.h"
#include "src/table/table.h"

namespace cvopt {

/// A sample of base-table rows. `weights[i]` is the expansion factor of
/// sampled row i: the number of base rows it represents (n_c / s_c for
/// stratified uniform designs, 1 / (M * p_i) for measure-biased designs).
class StratifiedSample {
 public:
  StratifiedSample(const Table* base, std::vector<uint32_t> rows,
                   std::vector<double> weights, std::string method);

  const Table& base() const { return *base_; }
  const std::vector<uint32_t>& rows() const { return rows_; }
  const std::vector<double>& weights() const { return weights_; }
  const std::string& method() const { return method_; }

  size_t size() const { return rows_.size(); }

  /// Fraction of base rows materialized.
  double SampleRate() const {
    return base_->num_rows() == 0
               ? 0.0
               : static_cast<double>(rows_.size()) /
                     static_cast<double>(base_->num_rows());
  }

  /// Optional: the stratification the sample was drawn under (for reports).
  void set_stratification(std::shared_ptr<const Stratification> s) {
    strat_ = std::move(s);
  }
  const Stratification* stratification() const { return strat_.get(); }

  /// Optional: per-stratum exhaustive-service flags (aligned with the
  /// stratification's strata). Flag c is 1 when the draw took every row of
  /// stratum c — the allocation met or exceeded the population, including
  /// DrawStratified's take-all clamp — so answers over that stratum are
  /// exact, not estimates. Empty when the sample was not drawn through
  /// DrawStratified (e.g. measure-biased designs).
  void set_stratum_exhaustive(std::vector<uint8_t> flags) {
    stratum_exhaustive_ = std::move(flags);
  }
  const std::vector<uint8_t>& stratum_exhaustive() const {
    return stratum_exhaustive_;
  }
  /// Number of strata served exactly (take-all / clamped allocations).
  size_t num_exhaustive_strata() const {
    size_t n = 0;
    for (uint8_t f : stratum_exhaustive_) n += f;
    return n;
  }

  /// Optional: per-stratum degradation flags (aligned with the
  /// stratification's strata). Flag c is 1 when the draw was cut short by a
  /// governance deadline / cancellation before stratum c drew, under a
  /// QueryContext with allow_partial set: the stratum contributed no rows
  /// and answers over it are missing rather than estimated. Empty when the
  /// draw completed every stratum.
  void set_stratum_degraded(std::vector<uint8_t> flags) {
    stratum_degraded_ = std::move(flags);
  }
  const std::vector<uint8_t>& stratum_degraded() const {
    return stratum_degraded_;
  }
  /// Number of strata skipped by a partial (deadline-degraded) draw.
  size_t num_degraded_strata() const {
    size_t n = 0;
    for (uint8_t f : stratum_degraded_) n += f;
    return n;
  }

  /// Optional: how many distinct strata the sampler observed while drawing
  /// — a StreamGroupRouter's final occupancy for streaming builds, the
  /// stratification's group count for offline designs. Query-time group
  /// builds over the sample feed it to the hash-vs-sort aggregation
  /// planner as a cardinality prior (zero = unknown). Perf-only: the
  /// planner's choice never changes results.
  void set_observed_strata(size_t n) { observed_strata_ = n; }
  size_t observed_strata() const {
    if (observed_strata_ != 0) return observed_strata_;
    return strat_ != nullptr ? strat_->num_strata() : 0;
  }

  /// Copies the sampled rows into a standalone Table (for export or for
  /// engines that want a physical sample table).
  Table Materialize() const { return base_->TakeRows(rows_); }

  /// The sampled rows as one contiguous Table: row i is base row rows()[i].
  /// Every column is copied; string columns keep the base table's codes
  /// and a copy of its dictionary (unlike Materialize, which re-interns and
  /// renumbers), so predicates, labels and wire key codes over it are the
  /// base table's. The approximate executor reads only this table, never
  /// the base rows.
  ///
  /// Contract:
  ///   - Built on first use, under the caller's QueryContext: its bytes
  ///     are reserved (ReserveMemoryOrThrow) while it is built, so a budget
  ///     smaller than the copy fails the call with kResourceExhausted.
  ///   - Thread-safe on a shared const sample. Concurrent first uses may
  ///     each build; the first to finish publishes and every caller gets
  ///     that one table. A failed build publishes nothing.
  ///   - Lifetime and memory: owned by the sample and freed with it (the
  ///     returned pointer keeps it alive beyond that). Copies of a sample
  ///     start without it. About 8 bytes per sampled row per numeric
  ///     column and 4 per string column, plus the dictionaries: 52 bytes
  ///     per sampled OpenAQ row.
  Result<std::shared_ptr<const Table>> Gathered() const;

  /// The GroupIndex over the sampled rows for `group_by`, built over
  /// Gathered(): position i is sample position i. Built on first use (with
  /// observed_strata() as the planner's cardinality prior) and kept on the
  /// sample, so every later query grouping the sample the same way skips
  /// the build — the catalog-hit path of the server. The index reads its
  /// group keys from the gathered table, which the returned pointer keeps
  /// alive.
  ///
  /// Contract:
  ///   - Answers are unchanged. An entry is reused only while
  ///     GroupIndex::CurrentBuildSettings equals the settings it was built
  ///     under, so the cached index is the one a fresh build would return.
  ///     A call under other settings rebuilds and replaces the entry: at
  ///     most one entry per GROUP BY list.
  ///   - Thread-safe on a shared const sample. Concurrent first uses may
  ///     each build (under their own QueryContext, so fail points and
  ///     memory reservations behave as for an uncached build); the first
  ///     to finish publishes and the others return its identical index.
  ///     A failed or aborted build publishes nothing.
  ///   - Memory: about 4 bytes per sampled row per cached grouping (plus
  ///     the partition artifact when the build was partitioned), owned by
  ///     the sample and freed with it. Copies of a sample start empty.
  Result<std::shared_ptr<const GroupIndex>> GroupIndexFor(
      const std::vector<std::string>& group_by) const;

 private:
  // What Gathered and GroupIndexFor keep on the sample. Copying or
  // assigning a sample does not carry it over: the mutex cannot be copied,
  // and an assigned-to sample's old contents describe other rows.
  struct QueryCache {
    struct Entry {
      std::vector<std::string> group_by;
      GroupIndexBuildSettings settings;
      std::shared_ptr<const GroupIndex> index;
    };
    QueryCache() = default;
    QueryCache(const QueryCache&) {}
    QueryCache& operator=(const QueryCache&) {
      std::lock_guard<std::mutex> lock(mu);
      gathered.reset();
      entries.clear();
      return *this;
    }
    std::mutex mu;
    std::shared_ptr<const Table> gathered;
    std::vector<Entry> entries;
  };

  const Table* base_;
  std::vector<uint32_t> rows_;
  std::vector<double> weights_;
  std::string method_;
  std::shared_ptr<const Stratification> strat_;
  std::vector<uint8_t> stratum_exhaustive_;
  std::vector<uint8_t> stratum_degraded_;
  size_t observed_strata_ = 0;
  mutable QueryCache cache_;
};

}  // namespace cvopt

#endif  // CVOPT_SAMPLE_STRATIFIED_SAMPLE_H_
