#include "src/estimate/approx_executor.h"

#include <algorithm>

#include "src/exec/group_index.h"
#include "src/exec/parallel.h"
#include "src/exec/query_context.h"
#include "src/expr/compiled_predicate.h"
#include "src/expr/plan_cache.h"

namespace cvopt {

namespace {

// Weighted median: the value at which cumulative Horvitz–Thompson weight
// crosses half the total, with the midpoint convention at an exact
// half-weight boundary (the even-count case with uniform weights), matching
// the exact executor.
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

}  // namespace

Result<QueryResult> ExecuteApprox(const StratifiedSample& sample,
                                  const QuerySpec& query) {
 return GovernedSection([&]() -> Result<QueryResult> {
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  CVOPT_RETURN_NOT_OK(CheckQueryAborted());
  const Table& table = sample.base();
  const std::vector<uint32_t>& rows = sample.rows();
  const std::vector<double>& weights = sample.weights();

  // Dense group ids over the sampled rows; position i maps to the group of
  // base row rows[i]. The sample builds the index on the first query with
  // this GROUP BY list and hands the same one to every later query.
  CVOPT_ASSIGN_OR_RETURN(std::shared_ptr<const GroupIndex> shared_gidx,
                         sample.GroupIndexFor(query.group_by));
  const GroupIndex& gidx = *shared_gidx;

  const size_t m = rows.size();
  const size_t G = gidx.num_groups();
  const uint32_t* rg = gidx.row_groups().data();
  const uint32_t* row_ids = rows.data();
  const double* w = weights.data();

  // WHERE compiles to typed kernels (cached per table + predicate) and
  // selects surviving sample positions directly (no per-position byte mask
  // on the query path).
  const bool use_sel = query.where != nullptr;
  std::vector<uint32_t> sel;
  if (use_sel) {
    CVOPT_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPredicate> where,
                           CompilePredicateCached(table, query.where));
    sel = where->SelectPositions(row_ids, m);
  }
  const uint32_t* selp = sel.data();
  // Accumulation iterates indices [0, k): surviving positions under a
  // WHERE clause, all sample positions otherwise. Parallel passes run the
  // same body over chunk-order index ranges and merge per-chunk
  // accumulators in chunk order; one chunk is the exact serial loop.
  const size_t k = use_sel ? sel.size() : m;
  const size_t chunks = AggregationChunks(k, G);
  auto for_range = [&](size_t lo, size_t hi, auto&& fn) {
    if (use_sel) {
      for (size_t i = lo; i < hi; ++i) fn(static_cast<size_t>(selp[i]));
    } else {
      for (size_t i = lo; i < hi; ++i) fn(i);
    }
  };

  // Per-aggregate value streams: numeric column, COUNT_IF indicator mask
  // (over the sampled rows, via the compiled kernel plan), or constant 1.
  const size_t t = query.aggregates.size();
  std::vector<const Column*> agg_cols(t, nullptr);
  std::vector<std::vector<uint8_t>> agg_masks(t);
  for (size_t j = 0; j < t; ++j) {
    const AggSpec& agg = query.aggregates[j];
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
        agg_cols[j] = col;
        break;
      }
      case AggFunc::kCount:
        break;
      case AggFunc::kCountIf: {
        if (agg.filter == nullptr) {
          return Status::InvalidArgument("COUNT_IF requires a filter predicate");
        }
        CVOPT_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPredicate> filter,
                               CompilePredicateCached(table, agg.filter));
        agg_masks[j].resize(m);
        ParallelEvalMask(*filter, row_ids, m, agg_masks[j].data());
        break;
      }
    }
  }

  // Queries over a partitioned sample build accumulate into
  // partition-owned slabs: each worker owns its partition's disjoint group
  // range, so there is no chunk merge and per-group weight sums equal the
  // serial ascending-position sums exactly. A WHERE selection rides the
  // same slabs through a dense byte mask over sample positions — a group's
  // surviving positions are still visited ascending.
  const GroupPartitions* parts =
      gidx.partitions() != nullptr ? gidx.partitions().get() : nullptr;

  std::vector<uint8_t> sel_mask;
  const uint8_t* mk = nullptr;
  if (parts != nullptr && use_sel) {
    // Selection entries are distinct positions: parallel chunks scatter to
    // disjoint slots.
    sel_mask.assign(m, 0);
    uint8_t* mp = sel_mask.data();
    ParallelForChunks(k, AggregationChunks(k, G),
                      [&](size_t, size_t lo, size_t hi) {
                        for (size_t i = lo; i < hi; ++i) mp[selp[i]] = 1;
                      });
    mk = mp;
  }

  // Per-group surviving-position counts and total HT weight (identical
  // across aggregates: every aggregate sees every surviving sampled row).
  // Counts merge bit-exactly; weights merge in chunk order (the documented
  // float-summation tolerance).
  std::vector<uint64_t> cnt(G, 0);
  std::vector<double> wcnt(G, 0.0);
  if (parts != nullptr) {
    if (mk != nullptr) {
      // Masked counts land through the same disjoint global-id slabs as
      // the weights (no cross-worker merge).
      const size_t P = parts->num_partitions();
      const uint32_t* prows = parts->part_rows.data();
      const uint32_t* plocal = parts->part_local.data();
      const uint32_t* l2g = parts->local_to_global.data();
      ParallelForChunks(P, P, [&](size_t p, size_t, size_t) {
        const size_t gb = parts->group_base[p];
        std::vector<uint64_t> local(parts->num_groups_in(p), 0);
        for (size_t kk = parts->part_base[p]; kk < parts->part_base[p + 1];
             ++kk) {
          local[plocal[kk]] += mk[prows[kk]];
        }
        for (size_t l = 0; l < local.size(); ++l) {
          cnt[l2g[gb + l]] = local[l];
        }
      });
    } else {
      cnt.assign(gidx.sizes().begin(), gidx.sizes().end());
    }
    const uint32_t* prows = parts->part_rows.data();
    const uint32_t* plocal = parts->part_local.data();
    AccumulatePartitioned(
        *parts, /*use_s2=*/false, wcnt.data(), nullptr,
        [&](size_t p, double* pw, double*) {
          for (size_t kk = parts->part_base[p]; kk < parts->part_base[p + 1];
               ++kk) {
            if (mk != nullptr && mk[prows[kk]] == 0) continue;
            pw[plocal[kk]] += w[prows[kk]];
          }
        });
  } else if (chunks == 1) {
    for_range(0, k, [&](size_t i) {
      cnt[rg[i]]++;
      wcnt[rg[i]] += w[i];
    });
  } else {
    std::vector<std::vector<uint64_t>> pcnt(chunks);
    std::vector<std::vector<double>> pwcnt(chunks);
    ParallelForChunks(k, chunks, [&](size_t c, size_t lo, size_t hi) {
      pcnt[c].assign(G, 0);
      pwcnt[c].assign(G, 0.0);
      uint64_t* pc = pcnt[c].data();
      double* pw = pwcnt[c].data();
      for_range(lo, hi, [&](size_t i) {
        pc[rg[i]]++;
        pw[rg[i]] += w[i];
      });
    });
    for (size_t c = 0; c < chunks; ++c) {
      for (size_t g = 0; g < G; ++g) {
        cnt[g] += pcnt[c][g];
        wcnt[g] += pwcnt[c][g];
      }
    }
  }

  // Struct-of-arrays weighted accumulators, aggregate-major: wsums[j*G+g].
  bool any_var = false;
  for (const auto& a : query.aggregates) any_var |= a.func == AggFunc::kVariance;
  // Dominant working memory of the approximate pass, charged to the
  // query's budget for the duration of the accumulation.
  MemoryReservation slab_res = ReserveMemoryOrThrow(
      (t * G * sizeof(double)) * (any_var ? 2 : 1) +
          G * (sizeof(uint64_t) + sizeof(double)),
      "approx accumulator slabs");
  std::vector<double> wsums(t * G, 0.0);
  std::vector<double> wsums2;
  if (any_var) wsums2.assign(t * G, 0.0);
  // (value, weight) buffers per MEDIAN aggregate, indexed [agg][group].
  std::vector<std::vector<std::vector<std::pair<double, double>>>>
      median_pairs(t);

  for (size_t j = 0; j < t; ++j) {
    const AggFunc f = query.aggregates[j].func;
    if (f == AggFunc::kCount) continue;  // answered by wcnt[] directly
    double* S = wsums.data() + j * G;
    double* S2 = any_var ? wsums2.data() + j * G : nullptr;
    auto accumulate = [&](auto value_at) {
      if (parts != nullptr) {
        // Partition-owned weighted slabs: identical shape to the exact
        // executor's partition path, with Horvitz–Thompson weights folded
        // in. Per-group (value, weight) sequences are the ascending-
        // position serial sequences (masked positions skipped in place),
        // so MEDIAN pairs land whole.
        const size_t P = parts->num_partitions();
        const uint32_t* prows = parts->part_rows.data();
        const uint32_t* plocal = parts->part_local.data();
        const uint32_t* l2g = parts->local_to_global.data();
        if (f == AggFunc::kMedian) {
          median_pairs[j].resize(G);
          ParallelForChunks(P, P, [&](size_t p, size_t, size_t) {
            const size_t gb = parts->group_base[p];
            std::vector<std::vector<std::pair<double, double>>> bufs(
                parts->num_groups_in(p));
            for (size_t kk = parts->part_base[p]; kk < parts->part_base[p + 1];
                 ++kk) {
              const size_t i = prows[kk];
              if (mk != nullptr && mk[i] == 0) continue;
              bufs[plocal[kk]].emplace_back(value_at(i), w[i]);
            }
            for (size_t l = 0; l < bufs.size(); ++l) {
              median_pairs[j][l2g[gb + l]] = std::move(bufs[l]);
            }
          });
        } else {
          AccumulatePartitioned(
              *parts, /*use_s2=*/f == AggFunc::kVariance, S, S2,
              [&](size_t p, double* s, double* s2) {
                for (size_t kk = parts->part_base[p];
                     kk < parts->part_base[p + 1]; ++kk) {
                  const size_t i = prows[kk];
                  if (mk != nullptr && mk[i] == 0) continue;
                  const double v = value_at(i);
                  s[plocal[kk]] += w[i] * v;
                  if (s2 != nullptr) s2[plocal[kk]] += w[i] * v * v;
                }
              });
        }
        return;
      }
      switch (f) {
        case AggFunc::kVariance:
          AccumulateChunked(
              k, chunks, G, S, S2,
              [&](double* s, double* s2, size_t lo, size_t hi) {
                for_range(lo, hi, [&](size_t i) {
                  const double v = value_at(i);
                  s[rg[i]] += w[i] * v;
                  s2[rg[i]] += w[i] * v * v;
                });
              });
          break;
        case AggFunc::kMedian:
          // Finalization reads only the (value, weight) buffers and wcnt.
          CollectChunked<std::pair<double, double>>(
              k, chunks, G, &median_pairs[j],
              [&](std::vector<std::pair<double, double>>* bufs, size_t lo,
                  size_t hi) {
                for_range(lo, hi, [&](size_t i) {
                  bufs[rg[i]].emplace_back(value_at(i), w[i]);
                });
              });
          break;
        default:
          AccumulateChunked(
              k, chunks, G, S, nullptr,
              [&](double* s, double*, size_t lo, size_t hi) {
                for_range(lo, hi,
                          [&](size_t i) { s[rg[i]] += w[i] * value_at(i); });
              });
          break;
      }
    };
    // Hoisted value-stream dispatch; `value_at` takes a sample position.
    if (agg_cols[j] != nullptr) {
      if (agg_cols[j]->type() == DataType::kDouble) {
        const double* vals = agg_cols[j]->doubles().data();
        accumulate([vals, row_ids](size_t i) { return vals[row_ids[i]]; });
      } else {
        const int64_t* vals = agg_cols[j]->ints().data();
        accumulate([vals, row_ids](size_t i) {
          return static_cast<double>(vals[row_ids[i]]);
        });
      }
    } else {
      const uint8_t* ind = agg_masks[j].data();  // COUNT_IF
      accumulate([ind](size_t i) { return ind[i] ? 1.0 : 0.0; });
    }
  }

  // Finalize aggregate-major and bulk-ingest (flat values, batch labels,
  // lazy key -> index map), mirroring the exact executor.
  std::vector<double> finals(t * G, 0.0);
  for (size_t j = 0; j < t; ++j) {
    const double* S = wsums.data() + j * G;
    double* F = finals.data() + j * G;
    switch (query.aggregates[j].func) {
      case AggFunc::kAvg:
        for (size_t g = 0; g < G; ++g) {
          if (wcnt[g] > 0.0) F[g] = S[g] / wcnt[g];
        }
        break;
      case AggFunc::kCount:
        std::copy(wcnt.begin(), wcnt.end(), F);
        break;
      case AggFunc::kSum:
      case AggFunc::kCountIf:
        std::copy(S, S + G, F);
        break;
      case AggFunc::kVariance: {
        // Weighted plug-in estimator of the population variance:
        // E_w[v^2] - E_w[v]^2.
        const double* S2 = wsums2.data() + j * G;
        for (size_t g = 0; g < G; ++g) {
          if (wcnt[g] <= 0.0) continue;
          const double mean = S[g] / wcnt[g];
          F[g] = std::max(0.0, S2[g] / wcnt[g] - mean * mean);
        }
        break;
      }
      case AggFunc::kMedian:
        for (size_t g = 0; g < G; ++g) {
          if (cnt[g]) F[g] = WeightedMedianOf(&median_pairs[j][g], wcnt[g]);
        }
        break;
    }
  }

  std::vector<std::string> agg_labels;
  agg_labels.reserve(t);
  for (const auto& a : query.aggregates) agg_labels.push_back(a.Label());

  // Groups emit in first-occurrence-over-sampled-rows order; under a WHERE
  // clause this may differ from the legacy first-surviving-row order.
  QueryResult result(std::move(agg_labels), query.group_by);
  CVOPT_RETURN_NOT_OK(result.IngestDense(gidx, cnt, finals));
  return result;
 });
}

}  // namespace cvopt
