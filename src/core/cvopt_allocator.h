// CvoptAllocator: the paper's primary contribution. Given a table, a set of
// group-by queries (with weights), and a row budget M, it:
//   1. stratifies by the union of all group-by attribute sets
//      ("finest stratification", Section 4),
//   2. computes per-stratum optimization coefficients beta_c — Theorem 1
//      (SASG), Theorem 2 (MASG), Lemma 2 (SAMG) and Lemma 3 / the general
//      multi-aggregate multi-group-by formula (Section 4.2) are all special
//      cases of the one implemented here:
//        beta_c = n_c^2 * sum_i (1 / n_{Pi(c,Ai)}^2) *
//                 sum_{l in L_i} w_{Pi(c,Ai),l} * sigma_{c,l}^2 / mu_{Pi(c,Ai),l}^2
//   3. solves Lemma 1 with caps (s_c <= n_c) to get the provably optimal
//      integral allocation under the l2 norm of the CVs.
// The l-inf norm is handled by CvoptInf (Section 5) for the SASG case.
#ifndef CVOPT_CORE_CVOPT_ALLOCATOR_H_
#define CVOPT_CORE_CVOPT_ALLOCATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/lemma1.h"
#include "src/core/stratification.h"
#include "src/exec/query.h"
#include "src/stats/group_stats.h"

namespace cvopt {

/// Which norm of the CV vector to optimize. kLp generalizes to any p >= 1
/// (the paper's Section-8 future-work direction; see core/lp_norm.h):
/// p interpolates between average-error emphasis (small p) and max-error
/// emphasis (large p).
enum class CvNorm { kL2, kLinf, kLp };

/// Per-(query, group, aggregate) weight override; returning 1.0 everywhere
/// reproduces the unweighted objective. Used to prioritize groups or to
/// plug in workload-deduced frequencies (Section 4.3). Invoked serially:
/// the allocator's beta loop morsels through the execution pool only when
/// no callback is installed, so stateful callbacks keep working unchanged.
/// `group_codes` is the group's flat key: one code per attribute of the
/// query's GROUP BY, in its order (an int column's value, a string column's
/// dictionary code).
using GroupWeightFn = std::function<double(
    size_t query_index, const int64_t* group_codes, size_t agg_index)>;

/// Options controlling the allocation.
struct AllocatorOptions {
  CvNorm norm = CvNorm::kL2;
  /// Exponent for CvNorm::kLp; ignored otherwise. Must be >= 1.
  double lp_p = 4.0;
  GroupWeightFn group_weight_fn;  // optional
};

/// Output of planning: the finest stratification, the optimization
/// coefficients, and the solved allocation.
///
/// Handoff contract with the draw phase: allocation.sizes[c] is the row
/// budget of stratum c in stratification order, and that index doubles as
/// the stratum's RNG-stream id in DrawStratified (Rng::ForStratum(master,
/// c)). The plan is a pure function of (table, queries, budget, options) —
/// the statistics pass chunks thread-count-independently — so the same
/// inputs always hand the draw the same allocation, and seed -> sample
/// stays a function regardless of CVOPT_THREADS.
struct AllocationPlan {
  std::shared_ptr<Stratification> strat;
  std::vector<double> betas;
  Allocation allocation;

  /// Total allocated rows.
  uint64_t TotalSize() const;
};

/// Computes the CVOPT allocation plan for the given queries and budget.
///
/// Statistics are computed from the full table without applying the queries'
/// WHERE predicates: the sample is precomputed before runtime predicates are
/// known (Section 6, "the sample ... can answer queries that involve
/// selection predicates provided at query time").
Result<AllocationPlan> PlanCvoptAllocation(const Table& table,
                                           const std::vector<QuerySpec>& queries,
                                           uint64_t budget,
                                           const AllocatorOptions& options = {});

}  // namespace cvopt

#endif  // CVOPT_CORE_CVOPT_ALLOCATOR_H_
