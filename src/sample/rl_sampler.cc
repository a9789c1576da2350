#include "src/sample/rl_sampler.h"

#include <algorithm>
#include <cmath>

#include "src/stats/stats_collector.h"

namespace cvopt {

Result<StratifiedSample> RlSampler::Build(const Table& table,
                                          const std::vector<QuerySpec>& queries,
                                          uint64_t budget, Rng* rng) const {
  std::vector<std::vector<std::string>> attr_sets;
  for (const auto& q : queries) attr_sets.push_back(q.group_by);
  CVOPT_ASSIGN_OR_RETURN(Stratification strat,
                         Stratification::Build(table, UnionAttrs(attr_sets)));
  auto shared = std::make_shared<Stratification>(std::move(strat));
  const size_t r = shared->num_strata();

  // Hierarchical partitioning: each grouping set receives an equal share of
  // the budget; within a set, groups receive shares proportional to their
  // CV (size-oblivious), subdivided among strata by frequency.
  std::vector<double> frac(r, 0.0);
  const double per_query_budget =
      static_cast<double>(budget) / static_cast<double>(queries.size());

  CVOPT_ASSIGN_OR_RETURN(WorkloadStats workload_stats,
                         CollectWorkloadStats(table, *shared, queries));
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const QuerySpec& q = queries[qi];
    const WorkloadStats::QueryStats stats = workload_stats.query(qi);
    CVOPT_ASSIGN_OR_RETURN(Stratification::Projection proj,
                           shared->Project(q.group_by));
    const size_t num_groups = proj.num_parents();

    // Per-group CV: average over the query's aggregates of the CV of the
    // group (merged from its strata).
    GroupStatsTable parent_stats(num_groups, q.aggregates.size());
    for (size_t c = 0; c < r; ++c) {
      const uint32_t g = proj.stratum_to_parent[c];
      for (size_t j = 0; j < q.aggregates.size(); ++j) {
        parent_stats.At(g, j).Merge(stats.At(c, j));
      }
    }
    std::vector<double> group_cv(num_groups, 0.0);
    double cv_sum = 0.0;
    for (size_t g = 0; g < num_groups; ++g) {
      double acc = 0.0;
      for (size_t j = 0; j < q.aggregates.size(); ++j) {
        acc += parent_stats.At(g, j).cv();
      }
      group_cv[g] = acc / static_cast<double>(q.aggregates.size());
      cv_sum += group_cv[g];
    }

    for (size_t c = 0; c < r; ++c) {
      const uint32_t g = proj.stratum_to_parent[c];
      const double n_g = static_cast<double>(proj.parent_sizes[g]);
      if (n_g == 0) continue;
      double share;
      if (cv_sum > 0.0) {
        share = per_query_budget * group_cv[g] / cv_sum;
      } else {
        // All CVs zero: RL falls back to an equal split.
        share = per_query_budget / static_cast<double>(num_groups);
      }
      const double n_c = static_cast<double>(shared->sizes()[c]);
      frac[c] += share * n_c / n_g;
    }
  }

  // RL's hallmark: truncate over-allocations at the stratum size WITHOUT
  // redistributing the surplus (the waste the paper observes in §6.1).
  std::vector<uint64_t> sizes(r, 0);
  for (size_t c = 0; c < r; ++c) {
    uint64_t s = static_cast<uint64_t>(std::llround(frac[c]));
    if (shared->sizes()[c] > 0 && s == 0) s = 1;  // minimal representation
    sizes[c] = std::min<uint64_t>(s, shared->sizes()[c]);
  }

  // Trim from the largest allocations down to the budget, but never below
  // one row per non-empty stratum: RL's minimal representation takes
  // priority, so a budget below the number of non-empty strata yields one
  // row per such stratum, which exceeds the budget.
  uint64_t total = 0;
  for (uint64_t s : sizes) total += s;
  while (total > budget) {
    size_t arg = r;
    uint64_t best = 1;
    for (size_t c = 0; c < r; ++c) {
      if (sizes[c] > best) {
        best = sizes[c];
        arg = c;
      }
    }
    if (arg == r) break;
    sizes[arg]--;
    total--;
  }
  return DrawStratified(table, shared, sizes, name(), rng);
}

}  // namespace cvopt
