#include "src/core/stratification.h"

#include <algorithm>

#include "src/exec/group_index.h"
#include "src/exec/parallel.h"
#include "src/exec/query_context.h"
#include "src/expr/compiled_predicate.h"
#include "src/expr/plan_cache.h"

namespace cvopt {

constexpr uint32_t Stratification::kNoStratum;

Result<Stratification> Stratification::Build(const Table& table,
                                             std::vector<std::string> attrs) {
 return GovernedSection([&]() -> Result<Stratification> {
  Stratification out;
  out.table_ = &table;
  out.attrs_ = std::move(attrs);
  // One vectorized pass: dense stratum ids, sizes, and representative keys
  // all come from the shared group-id pipeline.
  CVOPT_ASSIGN_OR_RETURN(GroupIndex gidx, GroupIndex::Build(table, out.attrs_));
  out.column_indices_ = gidx.column_indices();
  out.key_codes_ = gidx.KeyCodes();
  out.row_strata_ = gidx.TakeRowGroups();
  out.sizes_ = gidx.TakeSizes();
  // A partitioned build hands its artifact over: per-stratum row lists then
  // come straight from the partitions instead of a counting-sort pass.
  out.lists_->parts = gidx.partitions();
  return out;
 });
}

Result<Stratification> Stratification::Build(const Table& table,
                                             std::vector<std::string> attrs,
                                             const PredicatePtr& where) {
  if (where == nullptr) return Build(table, std::move(attrs));
 return GovernedSection([&]() -> Result<Stratification> {
  Stratification out;
  out.table_ = &table;
  out.attrs_ = std::move(attrs);
  // Vectorized predicate (cached per table + clause) -> morsel-parallel
  // selection vector of surviving rows, then the shared dense group-id
  // pipeline over just those rows.
  CVOPT_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPredicate> cp,
                         CompilePredicateCached(table, where));
  const std::vector<uint32_t> rows = ParallelSelect(*cp);
  CVOPT_ASSIGN_OR_RETURN(GroupIndex gidx,
                         GroupIndex::BuildForRows(table, out.attrs_, rows));
  out.column_indices_ = gidx.column_indices();
  out.key_codes_ = gidx.KeyCodes();
  out.sizes_ = gidx.TakeSizes();
  out.row_strata_.assign(table.num_rows(), kNoStratum);
  const std::vector<uint32_t> pos_strata = gidx.TakeRowGroups();
  // Scatter surviving positions to their table rows; `rows` entries are
  // distinct, so chunks write disjoint slots.
  uint32_t* row_strata = out.row_strata_.data();
  const uint32_t* rowp = rows.data();
  const uint32_t* posp = pos_strata.data();
  ParallelFor(rows.size(), [&](size_t, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) row_strata[rowp[i]] = posp[i];
  });
  if (gidx.partitions() != nullptr) {
    // Partition positions index into `rows`; keep the selection so the
    // partition-backed list fill can map positions back to table rows.
    out.lists_->parts = gidx.partitions();
    out.lists_->sel_rows = std::move(rows);
  }
  return out;
 });
}

const std::vector<uint32_t>& Stratification::stratum_rows() const {
  MaterializeStratumRows();
  return lists_->rows;
}

const std::vector<size_t>& Stratification::stratum_row_base() const {
  MaterializeStratumRows();
  return lists_->base;
}

void Stratification::MaterializeStratumRows() const {
  std::call_once(lists_->once, [&] {
    RowListCache& c = *lists_;
    const size_t r = num_strata();
    c.base.assign(r + 1, 0);
    for (size_t s = 0; s < r; ++s) {
      c.base[s + 1] = c.base[s] + static_cast<size_t>(sizes_[s]);
    }
    // Charged to the ambient query's budget while the lists are built; the
    // cached lists themselves are table-lifetime state, not query state.
    MemoryReservation res = ReserveMemoryOrThrow(
        c.base[r] * sizeof(uint32_t) + (r + 1) * sizeof(size_t),
        "stratum row lists");
    c.rows.resize(c.base[r]);
    uint32_t* out = c.rows.data();
    if (c.parts != nullptr) {
      // Partition-backed fill: partition p owns its groups' output ranges
      // outright (disjoint global ids), so every partition scatters its own
      // ascending position list with no coordination — each stratum's rows
      // land in ascending row order, exactly the stable counting sort's
      // output.
      const GroupPartitions& gp = *c.parts;
      const uint32_t* sel = c.sel_rows.empty() ? nullptr : c.sel_rows.data();
      const size_t* base = c.base.data();
      ParallelForChunks(
          gp.num_partitions(), gp.num_partitions(),
          [&](size_t p, size_t, size_t) {
            const size_t gb = gp.group_base[p];
            const size_t ng = gp.num_groups_in(p);
            std::vector<size_t> cur(ng);
            for (size_t l = 0; l < ng; ++l) {
              cur[l] = base[gp.local_to_global[gb + l]];
            }
            for (size_t k = gp.part_base[p]; k < gp.part_base[p + 1]; ++k) {
              const uint32_t pos = gp.part_rows[k];
              out[cur[gp.part_local[k]]++] = sel ? sel[pos] : pos;
            }
          });
    } else {
      // Stable bucket-by-stratum: a parallel counting sort over
      // row_strata. Per-chunk histograms and scatter cursors depend only
      // on chunk boundaries and every chunking yields the same stable
      // (ascending-row) order, so the output is a pure function of the
      // stratification. Rows marked kNoStratum (excluded by a filtered
      // build) appear in no bucket. AggregationChunks caps the fan-out
      // where per-stratum histogram traffic would rival the row scan.
      const size_t n = row_strata_.size();
      const uint32_t* rs = row_strata_.data();
      const size_t chunks = n == 0 ? 1 : AggregationChunks(n, r);
      std::vector<uint32_t> cursors(chunks * r, 0);
      ParallelForChunks(n, chunks, [&](size_t ck, size_t lo, size_t hi) {
        uint32_t* cnt = cursors.data() + ck * r;
        for (size_t i = lo; i < hi; ++i) {
          const uint32_t s = rs[i];
          if (s != kNoStratum) cnt[s]++;
        }
      });
      for (size_t s = 0; s < r; ++s) {
        size_t at = c.base[s];
        for (size_t ck = 0; ck < chunks; ++ck) {
          const uint32_t count = cursors[ck * r + s];
          cursors[ck * r + s] = static_cast<uint32_t>(at);
          at += count;
        }
      }
      ParallelForChunks(n, chunks, [&](size_t ck, size_t lo, size_t hi) {
        uint32_t* cur = cursors.data() + ck * r;
        for (size_t i = lo; i < hi; ++i) {
          const uint32_t s = rs[i];
          if (s != kNoStratum) out[cur[s]++] = static_cast<uint32_t>(i);
        }
      });
    }
    // `parts` / `sel_rows` stay put: they are written once at Build time
    // (before the Stratification is shared) and only read afterwards, so
    // concurrent stratum_rows_cheap() probes never race a mutation.
    c.ready.store(true);
  });
}

Result<Stratification::Projection> Stratification::Project(
    const std::vector<std::string>& sub_attrs) const {
  Projection proj;
  // Positions of the sub-attributes within this stratification's attrs.
  std::vector<size_t> positions;
  positions.reserve(sub_attrs.size());
  for (const auto& a : sub_attrs) {
    auto it = std::find(attrs_.begin(), attrs_.end(), a);
    if (it == attrs_.end()) {
      return Status::InvalidArgument(
          "attribute '" + a + "' is not part of the stratification");
    }
    positions.push_back(static_cast<size_t>(it - attrs_.begin()));
  }
  proj.parent_column_indices.reserve(positions.size());
  for (size_t p : positions) {
    proj.parent_column_indices.push_back(column_indices_[p]);
  }

  // Route the strata's projected keys in stratum order: the router's
  // first-seen ids are the parent ids and its codes their keys.
  const size_t r = num_strata();
  StreamGroupRouter router(
      std::vector<DataType>(positions.size(), DataType::kInt64));
  proj.stratum_to_parent.resize(r);
  RouteKeyColumns(key_codes_.data(), r, column_indices_.size(), positions,
                  &router, proj.stratum_to_parent.data());
  proj.parent_sizes.assign(router.num_groups(), 0);
  for (size_t c = 0; c < r; ++c) {
    proj.parent_sizes[proj.stratum_to_parent[c]] += sizes_[c];
  }
  proj.parent_codes = router.codes();
  return proj;
}

std::string Stratification::Label(size_t stratum) const {
  std::string out;
  AppendKeyLabel(key_codes(stratum), KeyDictsOf(*table_, column_indices_),
                 &out);
  return out;
}

std::vector<std::string> UnionAttrs(
    const std::vector<std::vector<std::string>>& attr_sets) {
  std::vector<std::string> out;
  for (const auto& set : attr_sets) {
    for (const auto& a : set) {
      if (std::find(out.begin(), out.end(), a) == out.end()) out.push_back(a);
    }
  }
  return out;
}

}  // namespace cvopt
