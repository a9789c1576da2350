#include "src/core/cvopt_allocator.h"

#include <cmath>

#include "src/core/cvopt_inf.h"
#include "src/core/lp_norm.h"
#include "src/exec/parallel.h"
#include "src/stats/stats_collector.h"

namespace cvopt {

uint64_t AllocationPlan::TotalSize() const {
  uint64_t total = 0;
  for (uint64_t s : allocation.sizes) total += s;
  return total;
}

namespace {

// mu^2 with the CV floor of RunningStats::cv(): keeps the coefficient finite
// when a group mean is ~0 (the paper assumes non-zero means).
double SquaredMeanFloored(double mu, double sigma) {
  const double abs_mu = std::fabs(mu);
  const double floor = sigma * kCvMuFloorRatio;
  const double m = std::max(abs_mu, floor);
  return m * m;
}

}  // namespace

Result<AllocationPlan> PlanCvoptAllocation(const Table& table,
                                           const std::vector<QuerySpec>& queries,
                                           uint64_t budget,
                                           const AllocatorOptions& options) {
  if (queries.empty()) {
    return Status::InvalidArgument("at least one query is required");
  }
  for (const auto& q : queries) {
    if (q.aggregates.empty()) {
      return Status::InvalidArgument("query '" + q.name + "' has no aggregates");
    }
  }

  // Finest stratification over the union of all group-by attribute sets.
  std::vector<std::vector<std::string>> attr_sets;
  attr_sets.reserve(queries.size());
  for (const auto& q : queries) attr_sets.push_back(q.group_by);
  const std::vector<std::string> union_attrs = UnionAttrs(attr_sets);
  CVOPT_ASSIGN_OR_RETURN(Stratification strat,
                         Stratification::Build(table, union_attrs));

  AllocationPlan plan;
  plan.strat = std::make_shared<Stratification>(std::move(strat));
  const Stratification& S = *plan.strat;
  const size_t r = S.num_strata();
  plan.betas.assign(r, 0.0);

  if (options.norm == CvNorm::kLinf) {
    // Section 5 defines CVOPT-INF for the single-aggregate single-group-by
    // case (strata coincide with groups).
    if (queries.size() != 1 || queries[0].aggregates.size() != 1) {
      return Status::Unimplemented(
          "CvNorm::kLinf is defined for a single aggregate and a single "
          "group-by (Section 5 of the paper)");
    }
    CVOPT_ASSIGN_OR_RETURN(
        BoundAggregates bound,
        BoundAggregates::Bind(table, queries[0].aggregates));
    CVOPT_ASSIGN_OR_RETURN(GroupStatsTable stats,
                           CollectGroupStats(S, bound.sources()));
    std::vector<double> sigmas(r), mus(r);
    for (size_t c = 0; c < r; ++c) {
      sigmas[c] = stats.At(c, 0).stddev_population();
      mus[c] = stats.At(c, 0).mean();
    }
    CVOPT_ASSIGN_OR_RETURN(plan.allocation,
                           SolveCvoptInf(sigmas, mus, S.sizes(), budget));
    // Report the per-group (sigma/mu)^2 as the beta diagnostic.
    for (size_t c = 0; c < r; ++c) {
      plan.betas[c] = sigmas[c] * sigmas[c] / SquaredMeanFloored(mus[c], sigmas[c]);
    }
    return plan;
  }

  // l2 norm: accumulate the general beta_c over all queries and aggregates.
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const QuerySpec& q = queries[qi];
    CVOPT_ASSIGN_OR_RETURN(BoundAggregates bound,
                           BoundAggregates::Bind(table, q.aggregates));
    CVOPT_ASSIGN_OR_RETURN(GroupStatsTable stats,
                           CollectGroupStats(S, bound.sources()));
    CVOPT_ASSIGN_OR_RETURN(Stratification::Projection proj,
                           S.Project(q.group_by));

    // Parent-level (per-group) stats: merge the strata of each group.
    const size_t t = q.aggregates.size();
    const size_t num_parents = proj.num_parents();
    GroupStatsTable parent_stats(num_parents, t);
    for (size_t c = 0; c < r; ++c) {
      const uint32_t a = proj.stratum_to_parent[c];
      for (size_t j = 0; j < t; ++j) {
        parent_stats.At(a, j).Merge(stats.At(c, j));
      }
    }

    // Per-stratum beta accumulation: every stratum's contribution is
    // independent (reads shared stats, writes only betas[c]), so the loop
    // morsels through the shared pool; betas are bit-identical for every
    // thread count (per-slot writes, no reassociation), which the draw
    // phase's seed->sample contract relies on. Per-stratum work is several
    // aggregate lookups, hence the small grain. A user-supplied weight
    // callback keeps the pre-parallel serial contract (callers may have
    // stateful callbacks that were never written for concurrent
    // invocation), so its presence pins the loop to one thread.
    const int beta_threads = options.group_weight_fn ? 1 : 0;
    double* betas = plan.betas.data();
    ParallelFor(
        r,
        [&](size_t, size_t lo, size_t hi) {
          for (size_t c = lo; c < hi; ++c) {
            const uint32_t a = proj.stratum_to_parent[c];
            const double n_c = static_cast<double>(S.sizes()[c]);
            const double n_a = static_cast<double>(proj.parent_sizes[a]);
            if (n_a == 0) continue;
            double inner = 0.0;
            for (size_t j = 0; j < t; ++j) {
              const double sigma_c = stats.At(c, j).stddev_population();
              if (sigma_c == 0.0) continue;
              const double mu_a = parent_stats.At(a, j).mean();
              const double sigma_a = parent_stats.At(a, j).stddev_population();
              double w = q.weight * q.aggregates[j].weight;
              if (options.group_weight_fn) {
                w *= options.group_weight_fn(qi, proj.parent_key(a), j);
              }
              if (w <= 0.0) continue;
              inner += w * sigma_c * sigma_c / SquaredMeanFloored(mu_a, sigma_a);
            }
            betas[c] += n_c * n_c * inner / (n_a * n_a);
          }
        },
        beta_threads, 512);
  }

  if (options.norm == CvNorm::kLp) {
    CVOPT_ASSIGN_OR_RETURN(
        plan.allocation,
        SolveLpAllocation(plan.betas, S.sizes(), budget, options.lp_p));
  } else {
    CVOPT_ASSIGN_OR_RETURN(plan.allocation,
                           SolveLemma1(plan.betas, S.sizes(), budget));
  }
  return plan;
}

}  // namespace cvopt
