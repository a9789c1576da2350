#include "src/exec/group_by_executor.h"

#include <algorithm>

#include "src/exec/parallel.h"
#include "src/exec/query_context.h"
#include "src/expr/compiled_predicate.h"
#include "src/expr/plan_cache.h"
#include "src/util/failpoint.h"

namespace cvopt {

namespace {

// Median with the midpoint convention for even counts: middle element for
// odd sizes, mean of the two middle elements for even sizes.
double MedianOf(std::vector<double>* vs) {
  if (vs->empty()) return 0.0;
  const size_t mid = vs->size() / 2;
  std::nth_element(vs->begin(), vs->begin() + mid, vs->end());
  if (vs->size() % 2 == 1) return (*vs)[mid];
  const double hi = (*vs)[mid];
  const double lo = *std::max_element(vs->begin(), vs->begin() + mid);
  return (lo + hi) / 2.0;
}

// Weighted median: the value at which cumulative Horvitz–Thompson weight
// crosses half the total, with the midpoint convention at an exact
// half-weight boundary (the even-count case with uniform weights), matching
// MedianOf.
double WeightedMedianOf(std::vector<std::pair<double, double>>* pairs,
                        double total_weight) {
  if (pairs->empty()) return 0.0;
  std::sort(pairs->begin(), pairs->end());
  const double half = total_weight / 2.0;
  const double eps = 1e-9 * total_weight;
  double cum = 0.0;
  double med = pairs->back().first;
  for (size_t p = 0; p < pairs->size(); ++p) {
    cum += (*pairs)[p].second;
    if (cum >= half - eps) {
      if (cum <= half + eps && p + 1 < pairs->size()) {
        med = ((*pairs)[p].first + (*pairs)[p + 1].first) / 2.0;
      } else {
        med = (*pairs)[p].first;
      }
      break;
    }
  }
  return med;
}

// Weight policies of the accumulation kernel; an index i is a row of the
// accumulated table. Unweighted: a value adds itself, so the kernel
// compiles to plain exact loops.
struct Unweighted {
  static constexpr bool kWeighted = false;
  using MedianEntry = double;
  double Term(double v, size_t) const { return v; }
  MedianEntry Entry(double v, size_t) const { return v; }
};

// Horvitz–Thompson weights over a gathered sample: row i adds w[i] * v.
struct SampleWeights {
  static constexpr bool kWeighted = true;
  using MedianEntry = std::pair<double, double>;
  const double* w;
  double Term(double v, size_t i) const { return w[i] * v; }
  MedianEntry Entry(double v, size_t i) const { return {v, w[i]}; }
};

ValueStream StreamOf(const StatSource& src) {
  if (src.indicator != nullptr) {
    return {ValueStream::kIndicator, src.indicator->data()};
  }
  if (src.column->type() == DataType::kDouble) {
    return {ValueStream::kDouble, src.column->doubles().data()};
  }
  return {ValueStream::kInt64, src.column->ints().data()};
}

// The one accumulation kernel behind both AccumulateGrouped forms.
template <class Weights>
Result<GroupedAccumulators> Accumulate(const std::vector<AggSpec>& aggs,
                                       const BoundAggregates& bound,
                                       const GroupIndex& gidx,
                                       const std::vector<uint32_t>* sel,
                                       const Weights& wp) {
  const size_t n = gidx.num_rows();
  const size_t t = aggs.size();
  const size_t G = gidx.num_groups();
  const uint32_t* rg = gidx.row_groups().data();
  const bool use_sel = sel != nullptr;
  const uint32_t* selp = use_sel ? sel->data() : nullptr;
  // Positions a pass visits: surviving rows under a WHERE clause, all rows
  // otherwise.
  const size_t m = use_sel ? sel->size() : n;
  const size_t chunks = AggregationChunks(m, G);

  GroupedAccumulators acc;
  acc.num_groups = G;
  bool any_var = false;
  for (const auto& a : aggs) any_var |= a.func == AggFunc::kVariance;
  // The accumulator slabs are the aggregation's dominant working memory;
  // reserve them against the query's budget before touching them (the
  // fail-point lets tests force the kResourceExhausted path without a real
  // budget). Held until the accumulators are returned to the caller.
  CVOPT_FAILPOINT("exec.groupby.alloc");
  MemoryReservation slab_res = ReserveMemoryOrThrow(
      (t * G * sizeof(double)) * (any_var ? 2 : 1) + G * sizeof(uint64_t) +
          (Weights::kWeighted ? G * sizeof(double) : 0),
      "group-by accumulator slabs");
  acc.sums.assign(t * G, 0.0);
  if (any_var) acc.sums2.assign(t * G, 0.0);
  acc.median_values.resize(t);
  if constexpr (Weights::kWeighted) {
    acc.wcnt.assign(G, 0.0);
    acc.median_pairs.resize(t);
  }

  // A partitioned build accumulates into partition-owned slabs. Each
  // worker iterates its partition's ascending row list into a slab sized
  // to the partition's own group count, then writes the slab out at its
  // groups' global ids — disjoint across partitions, so there is no
  // contention and no chunk-order merge at all. Per-group sums are the
  // serial ascending-row sums bit for bit (no reassociation), and MEDIAN
  // buffers land whole (a group's rows live in one partition). A WHERE
  // selection rides the same slabs through a dense byte mask: a group's
  // surviving rows are still visited ascending, and fully-filtered groups
  // keep count zero (IngestDense omits them).
  const GroupPartitions* parts = gidx.partitions().get();
  const size_t P = parts != nullptr ? parts->num_partitions() : 0;
  const uint32_t* prows = parts != nullptr ? parts->part_rows.data() : nullptr;
  const uint32_t* plocal =
      parts != nullptr ? parts->part_local.data() : nullptr;

  std::vector<uint8_t> sel_mask;
  const uint8_t* mk = nullptr;
  if (parts != nullptr && use_sel) {
    // Scatter the selection into row-indexed bytes. Selection entries are
    // distinct rows, so parallel chunks write disjoint slots.
    sel_mask.assign(n, 0);
    uint8_t* mp = sel_mask.data();
    ParallelForChunks(m, chunks, [&](size_t, size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) mp[selp[i]] = 1;
    });
    mk = mp;
  }

  // Otherwise the chunk-order merged morsel path iterates positions
  // [0, m). Parallel passes run the same body over chunk-order position
  // ranges and merge per-chunk accumulators in chunk order; one chunk is
  // the exact serial loop.
  auto for_range = [&](size_t lo, size_t hi, auto&& fn) {
    if (use_sel) {
      for (size_t i = lo; i < hi; ++i) fn(static_cast<size_t>(selp[i]));
    } else {
      for (size_t r = lo; r < hi; ++r) fn(r);
    }
  };

  // Per-group surviving-row counts (identical across aggregates; integer,
  // so parallel merge is bit-exact).
  if (!use_sel) {
    acc.cnt.assign(gidx.sizes().begin(), gidx.sizes().end());
  } else {
    acc.cnt.assign(G, 0);
    if (parts != nullptr) {
      AccumulatePartitioned<uint64_t>(
          *parts, false, acc.cnt.data(), nullptr,
          [&](size_t p, uint64_t* c, uint64_t*) {
            for (size_t k = parts->part_base[p]; k < parts->part_base[p + 1];
                 ++k) {
              c[plocal[k]] += mk[prows[k]];
            }
          });
    } else {
      AccumulateChunked<uint64_t>(
          m, chunks, G, acc.cnt.data(), nullptr,
          [&](uint64_t* c, uint64_t*, size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; ++i) c[rg[selp[i]]]++;
          });
    }
  }

  // SUM-shaped pass: S[g] += x for x = Term(v), and S2[g] += x * v when S2
  // is set (VARIANCE).
  auto sum_pass = [&](auto value_at, double* S, double* S2) {
    if (parts != nullptr) {
      AccumulatePartitioned(
          *parts, S2 != nullptr, S, S2, [&](size_t p, double* s, double* s2) {
            for (size_t k = parts->part_base[p]; k < parts->part_base[p + 1];
                 ++k) {
              const size_t i = prows[k];
              if (mk != nullptr && mk[i] == 0) continue;
              const double v = value_at(i);
              const double x = wp.Term(v, i);
              s[plocal[k]] += x;
              if (s2 != nullptr) s2[plocal[k]] += x * v;
            }
          });
      return;
    }
    AccumulateChunked(
        m, chunks, G, S, S2, [&](double* s, double* s2, size_t lo, size_t hi) {
          if (s2 == nullptr) {
            for_range(lo, hi,
                      [&](size_t i) { s[rg[i]] += wp.Term(value_at(i), i); });
            return;
          }
          for_range(lo, hi, [&](size_t i) {
            const double v = value_at(i);
            const double x = wp.Term(v, i);
            s[rg[i]] += x;
            s2[rg[i]] += x * v;
          });
        });
  };

  // MEDIAN pass: per-group buffers of Entry(v) in ascending position order.
  using Entry = typename Weights::MedianEntry;
  auto median_pass = [&](auto value_at, std::vector<std::vector<Entry>>* out) {
    if (parts != nullptr) {
      out->resize(G);
      const uint32_t* l2g = parts->local_to_global.data();
      ParallelForChunks(P, P, [&](size_t p, size_t, size_t) {
        const size_t gb = parts->group_base[p];
        std::vector<std::vector<Entry>> bufs(parts->num_groups_in(p));
        for (size_t k = parts->part_base[p]; k < parts->part_base[p + 1];
             ++k) {
          const size_t i = prows[k];
          if (mk != nullptr && mk[i] == 0) continue;
          bufs[plocal[k]].push_back(wp.Entry(value_at(i), i));
        }
        for (size_t l = 0; l < bufs.size(); ++l) {
          (*out)[l2g[gb + l]] = std::move(bufs[l]);
        }
      });
      return;
    }
    CollectChunked<Entry>(
        m, chunks, G, out, [&](std::vector<Entry>* bufs, size_t lo, size_t hi) {
          for_range(lo, hi, [&](size_t i) {
            bufs[rg[i]].push_back(wp.Entry(value_at(i), i));
          });
        });
  };

  // Weight sums are the SUM pass over the constant 1 (w * 1.0 == w).
  if constexpr (Weights::kWeighted) {
    sum_pass([](size_t) { return 1.0; }, acc.wcnt.data(), nullptr);
  }
  for (size_t j = 0; j < t; ++j) {
    const StatSource& src = bound.sources()[j];
    if (src.constant_one) continue;  // COUNT is answered by cnt / wcnt
    const AggFunc f = aggs[j].func;
    double* S = acc.sums.data() + j * G;
    double* S2 = f == AggFunc::kVariance ? acc.sums2.data() + j * G : nullptr;
    VisitValueStream(StreamOf(src), [&](auto value_at) {
      if (f != AggFunc::kMedian) {
        sum_pass(value_at, S, S2);
      } else if constexpr (Weights::kWeighted) {
        median_pass(value_at, &acc.median_pairs[j]);
      } else {
        median_pass(value_at, &acc.median_values[j]);
      }
    });
  }
  return acc;
}

}  // namespace

Result<GroupedAccumulators> AccumulateGrouped(
    const Table& table, const QuerySpec& query, const GroupIndex& gidx,
    const std::vector<uint32_t>* sel) {
  return GovernedSection([&]() -> Result<GroupedAccumulators> {
    CVOPT_ASSIGN_OR_RETURN(BoundAggregates bound,
                           BoundAggregates::Bind(table, query.aggregates));
    return Accumulate(query.aggregates, bound, gidx, sel, Unweighted{});
  });
}

Result<GroupedAccumulators> AccumulateGrouped(
    const Table& table, const QuerySpec& query, const GroupIndex& gidx,
    const std::vector<uint32_t>* sel, const std::vector<double>& weights) {
  return GovernedSection([&]() -> Result<GroupedAccumulators> {
    CVOPT_ASSIGN_OR_RETURN(BoundAggregates bound,
                           BoundAggregates::Bind(table, query.aggregates));
    return Accumulate(query.aggregates, bound, gidx, sel,
                      SampleWeights{weights.data()});
  });
}

std::vector<double> FinalizeGrouped(const std::vector<AggSpec>& aggs,
                                    GroupedAccumulators* acc) {
  const size_t t = aggs.size();
  const size_t G = acc->num_groups;
  const std::vector<uint64_t>& cnt = acc->cnt;
  // A group's mass: its weight sum on a weighted pass, else its count.
  const bool weighted = !acc->wcnt.empty();
  const double* W = acc->wcnt.data();
  auto mass = [&](size_t g) {
    return weighted ? W[g] : static_cast<double>(cnt[g]);
  };
  std::vector<double> finals(t * G, 0.0);
  for (size_t j = 0; j < t; ++j) {
    const double* S = acc->sums.data() + j * G;
    double* F = finals.data() + j * G;
    switch (aggs[j].func) {
      case AggFunc::kAvg:
        for (size_t g = 0; g < G; ++g) {
          const double ng = mass(g);
          if (ng > 0.0) F[g] = S[g] / ng;
        }
        break;
      case AggFunc::kCount:
        for (size_t g = 0; g < G; ++g) F[g] = mass(g);
        break;
      case AggFunc::kSum:
      case AggFunc::kCountIf:
        std::copy(S, S + G, F);
        break;
      case AggFunc::kVariance: {
        // Plug-in estimator of the population variance: E[v^2] - E[v]^2,
        // weighted on a weighted pass.
        const double* S2 = acc->sums2.data() + j * G;
        for (size_t g = 0; g < G; ++g) {
          const double ng = mass(g);
          if (ng > 0.0) {
            const double mean = S[g] / ng;
            F[g] = std::max(0.0, S2[g] / ng - mean * mean);
          }
        }
        break;
      }
      case AggFunc::kMedian:
        for (size_t g = 0; g < G; ++g) {
          if (!cnt[g]) continue;
          F[g] = weighted ? WeightedMedianOf(&acc->median_pairs[j][g], W[g])
                          : MedianOf(&acc->median_values[j][g]);
        }
        break;
    }
  }
  return finals;
}

Result<QueryResult> MaterializeGrouped(const QuerySpec& query,
                                       const GroupIndex& gidx,
                                       GroupedAccumulators* acc) {
  // Finalize into an aggregate-major finals array and bulk-ingest: the
  // result is materialized flat, keys copied and labels rendered in one
  // pass over the live groups.
  const std::vector<double> finals = FinalizeGrouped(query.aggregates, acc);
  std::vector<std::string> agg_labels;
  agg_labels.reserve(query.aggregates.size());
  for (const auto& a : query.aggregates) agg_labels.push_back(a.Label());
  QueryResult result(std::move(agg_labels), query.group_by);
  CVOPT_RETURN_NOT_OK(result.IngestDense(gidx, acc->cnt, finals));
  return result;
}

Result<QueryResult> ExecuteExact(const Table& table, const QuerySpec& query) {
 return GovernedSection([&]() -> Result<QueryResult> {
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  CVOPT_RETURN_NOT_OK(CheckQueryAborted());
  CVOPT_ASSIGN_OR_RETURN(GroupIndex gidx,
                         GroupIndex::Build(table, query.group_by));

  // WHERE compiles through the shared plan cache (workload replays reuse
  // the plan) and evaluates per-morsel through the pool straight to a
  // selection vector of surviving rows; no byte mask is materialized and
  // the mask branch is hoisted out of every accumulation loop.
  const bool use_sel = query.where != nullptr;
  std::vector<uint32_t> sel;
  MemoryReservation sel_res;
  if (use_sel) {
    CVOPT_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPredicate> where,
                           CompilePredicateCached(table, query.where));
    // Upper bound: every row survives.
    sel_res = ReserveMemoryOrThrow(table.num_rows() * sizeof(uint32_t),
                                   "selection vector");
    sel = ParallelSelect(*where);
  }

  CVOPT_ASSIGN_OR_RETURN(
      GroupedAccumulators acc,
      AccumulateGrouped(table, query, gidx, use_sel ? &sel : nullptr));
  // Groups emit in first-occurrence-over-all-rows order (the GroupIndex is
  // built unmasked); under a WHERE clause this may differ from the legacy
  // first-surviving-row order. The group set and values are identical.
  return MaterializeGrouped(query, gidx, &acc);
 });
}

}  // namespace cvopt
