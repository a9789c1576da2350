#include "src/exec/chunked_scan.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <vector>

#include "src/exec/group_by_executor.h"
#include "src/exec/group_index.h"
#include "src/exec/parallel.h"
#include "src/exec/query_context.h"
#include "src/expr/compiled_predicate.h"
#include "src/stats/group_key.h"
#include "src/util/failpoint.h"
#include "src/util/string_util.h"

namespace cvopt {

namespace {

// Per-aggregate binding against the mapped schema (the streaming analogue
// of BoundAggregates::Bind, without materialized indicator vectors).
struct MappedAggBinding {
  bool constant_one = false;        // COUNT: answered by cnt[] directly
  bool median = false;              // collects its values
  const Predicate* filter = nullptr;  // COUNT_IF
  size_t col = 0;                   // value column otherwise
};

// Builds a zero-row Table with the mapped schema (string columns carry the
// file dictionaries) — the compile target for zone-map classification of
// the WHERE clause before any chunk is decoded. The compiled plan's column
// data pointers are empty and never dereferenced; only its literal /
// match-table leaves and column indexes feed ClassifyZones.
Table MakePrototype(const MappedTable& mt) {
  std::vector<Column> cols;
  cols.reserve(mt.num_columns());
  for (size_t c = 0; c < mt.num_columns(); ++c) {
    Column col(mt.schema().field(c).type);
    if (col.type() == DataType::kString) {
      col.AdoptDictionary(mt.dictionary(c));
    }
    cols.push_back(std::move(col));
  }
  return Table(mt.schema(), std::move(cols));
}

// Renders a group label exactly like GroupKey::Render does for the
// in-memory executor (dict strings for string columns, decimal otherwise).
std::string RenderLabel(const MappedTable& mt, const std::vector<size_t>& gcols,
                        const GroupKey& key) {
  std::vector<std::string> parts;
  parts.reserve(key.codes.size());
  for (size_t i = 0; i < key.codes.size(); ++i) {
    if (mt.schema().field(gcols[i]).type == DataType::kString) {
      const auto& dict = mt.dictionary(gcols[i]);
      const auto code = static_cast<size_t>(key.codes[i]);
      parts.push_back(code < dict.size()
                          ? dict[code]
                          : StrFormat("<%lld>", (long long)key.codes[i]));
    } else {
      parts.push_back(StrFormat("%lld", static_cast<long long>(key.codes[i])));
    }
  }
  return Join(parts, "|");
}

// Query compilation shared by the serial and parallel scans: resolved
// group-by columns, aggregate bindings, the prototype-compiled WHERE, and
// the column projection (which columns each phase decodes). The prototype
// Table lives behind a pointer so the compiled plan's borrowed column
// indexes stay valid however the struct moves.
struct MappedScanPlan {
  size_t t = 0;  // aggregate count
  std::vector<size_t> gcols;
  std::vector<DataType> gtypes;
  std::vector<MappedAggBinding> bindings;
  bool any_var = false;
  bool any_countif = false;
  std::vector<size_t> where_cols;    // columns the WHERE clause names
  std::vector<size_t> countif_cols;  // columns the COUNT_IF filters name
  std::vector<size_t> value_cols;    // aggregate input columns
  std::unique_ptr<Table> proto;
  std::unique_ptr<CompiledPredicate> proto_where;
};

// Sorted union of two ascending column lists.
std::vector<size_t> Union(const std::vector<size_t>& a,
                          const std::vector<size_t>& b) {
  std::vector<size_t> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

Result<MappedScanPlan> PrepareMappedScan(const MappedTable& mt,
                                         const QuerySpec& query) {
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  const Schema& schema = mt.schema();
  MappedScanPlan plan;
  plan.t = query.aggregates.size();

  // Resolve group-by columns (discrete types only, as GroupIndex requires).
  plan.gcols.reserve(query.group_by.size());
  for (const auto& name : query.group_by) {
    CVOPT_ASSIGN_OR_RETURN(size_t idx, schema.FindColumn(name));
    if (schema.field(idx).type == DataType::kDouble) {
      return Status::InvalidArgument("cannot group by double column " + name);
    }
    plan.gcols.push_back(idx);
    plan.gtypes.push_back(schema.field(idx).type);
  }

  // Resolve aggregates.
  plan.bindings.resize(plan.t);
  for (size_t j = 0; j < plan.t; ++j) {
    const AggSpec& a = query.aggregates[j];
    plan.any_var |= a.func == AggFunc::kVariance;
    plan.bindings[j].median = a.func == AggFunc::kMedian;
    if (a.func == AggFunc::kCount) {
      plan.bindings[j].constant_one = true;
      continue;
    }
    if (a.func == AggFunc::kCountIf) {
      if (a.filter == nullptr) {
        return Status::InvalidArgument("COUNT_IF requires a filter");
      }
      plan.bindings[j].filter = a.filter.get();
      plan.any_countif = true;
      continue;
    }
    CVOPT_ASSIGN_OR_RETURN(size_t idx, schema.FindColumn(a.column));
    if (schema.field(idx).type == DataType::kString) {
      return Status::InvalidArgument("cannot aggregate string column " +
                                     a.column);
    }
    plan.bindings[j].col = idx;
    plan.value_cols = Union(plan.value_cols, {idx});
  }

  // Compile the WHERE clause once against a zero-row prototype: this
  // validates it, yields the zone classifier used before any decode, and
  // names the columns the per-chunk predicate tables must carry. (Kept
  // alive for the whole scan — the plan borrows its zone index.)
  plan.proto = std::make_unique<Table>(MakePrototype(mt));
  auto referenced = [](const CompiledPredicate& cp) {
    const auto& cols = cp.referenced_columns();
    return std::vector<size_t>(cols.begin(), cols.end());
  };
  if (query.where != nullptr) {
    CVOPT_ASSIGN_OR_RETURN(
        CompiledPredicate cp,
        CompiledPredicate::Compile(*plan.proto, *query.where));
    plan.where_cols = referenced(cp);
    plan.proto_where = std::make_unique<CompiledPredicate>(std::move(cp));
  }
  // Validate COUNT_IF filters up front the same way.
  for (const auto& b : plan.bindings) {
    if (b.filter == nullptr) continue;
    CVOPT_ASSIGN_OR_RETURN(CompiledPredicate cp,
                           CompiledPredicate::Compile(*plan.proto, *b.filter));
    plan.countif_cols = Union(plan.countif_cols, referenced(cp));
  }
  return plan;
}

// Fetches chunk `k` of the group-by columns and routes its rows, writing
// each row's dense first-occurrence group id to out[0, rows).
Status RouteChunk(const MappedTable& mt, const MappedScanPlan& plan, size_t k,
                  StreamGroupRouter* router, uint32_t* out) {
  std::vector<std::shared_ptr<const DecodedChunk>> held(plan.gcols.size());
  std::vector<GroupCodeSpan> spans(plan.gcols.size());
  for (size_t i = 0; i < plan.gcols.size(); ++i) {
    CVOPT_ASSIGN_OR_RETURN(held[i], mt.GetChunk(plan.gcols[i], k));
    spans[i] = {held[i]->ints.data(), held[i]->codes.data()};
  }
  router->RouteSpans(spans.data(), mt.ChunkRowCount(k), out);
  return Status::OK();
}

// One chunk's projected accumulation inputs.
struct ChunkInputs {
  std::vector<std::shared_ptr<const DecodedChunk>> cols;  // by schema index
  std::vector<std::vector<uint8_t>> indicators;  // [agg], COUNT_IF only
  std::vector<uint32_t> survivors;  // offsets of the rows the WHERE keeps
};

// Decodes what accumulating chunk `k` reads — aggregate inputs plus the
// WHERE (unless the zone maps accepted every row) and COUNT_IF columns —
// and evaluates its masks. Predicates compile by name against a Table of
// just their own columns, so no other column is ever decoded.
Status LoadChunkInputs(const MappedTable& mt, const QuerySpec& query,
                       const MappedScanPlan& plan, size_t k,
                       ChunkVerdict verdict, ChunkInputs* in) {
  const size_t n = mt.ChunkRowCount(k);
  std::vector<uint8_t> smask;
  const bool eval_where =
      plan.proto_where != nullptr && verdict != ChunkVerdict::kTakeAll;
  const std::vector<size_t> pred_cols =
      Union(eval_where ? plan.where_cols : std::vector<size_t>{},
            plan.countif_cols);
  in->cols.resize(mt.num_columns());
  for (size_t c : Union(pred_cols, plan.value_cols)) {
    CVOPT_ASSIGN_OR_RETURN(in->cols[c], mt.GetChunk(c, k));
  }
  if (eval_where || plan.any_countif) {
    std::vector<Field> fields;
    std::vector<Column> columns;
    for (size_t c : pred_cols) {
      fields.push_back(mt.schema().field(c));
      Column col(fields.back().type);
      const DecodedChunk& d = *in->cols[c];
      switch (col.type()) {
        case DataType::kInt64:
          col.AdoptInts(d.ints);
          break;
        case DataType::kDouble:
          col.AdoptDoubles(d.doubles);
          break;
        case DataType::kString:
          col.AdoptDictionary(mt.dictionary(c));
          col.AdoptCodes(d.codes);
          break;
      }
      columns.push_back(std::move(col));
    }
    if (columns.empty()) {
      // The predicates name no column (TRUE, NOT TRUE): one placeholder
      // column gives their table the chunk's n rows.
      fields.push_back({"", DataType::kInt64});
      columns.emplace_back(DataType::kInt64);
      columns.back().AdoptInts(std::vector<int64_t>(n));
    }
    const Table table(Schema(std::move(fields)), std::move(columns));
    if (eval_where) {
      smask.resize(n);
      CVOPT_ASSIGN_OR_RETURN(CompiledPredicate cp,
                             CompiledPredicate::Compile(table, *query.where));
      cp.EvalMaskRange(0, n, smask.data());
    }
    in->indicators.resize(plan.t);
    for (size_t j = 0; j < plan.t; ++j) {
      if (plan.bindings[j].filter == nullptr) continue;
      in->indicators[j].resize(n);
      CVOPT_ASSIGN_OR_RETURN(
          CompiledPredicate cp,
          CompiledPredicate::Compile(table, *plan.bindings[j].filter));
      cp.EvalMaskRange(0, n, in->indicators[j].data());
    }
  }
  in->survivors.resize(n);
  size_t m = 0;
  for (size_t r = 0; r < n; ++r) {
    in->survivors[m] = static_cast<uint32_t>(r);
    m += smask.empty() || smask[r] != 0;
  }
  in->survivors.resize(m);
  return Status::OK();
}

// Per-group serial accumulators both scan shapes fill, indexed by the
// router's dense first-occurrence ids.
struct MappedAccumulators {
  std::vector<uint64_t> cnt;
  std::vector<std::vector<double>> sums;   // [agg][group]
  std::vector<std::vector<double>> sums2;  // [agg][group], variance only
  std::vector<std::vector<std::vector<double>>> medians;  // [agg][group]

  void Resize(const MappedScanPlan& plan, size_t groups) {
    cnt.resize(groups, 0);
    sums.resize(plan.t);
    sums2.resize(plan.any_var ? plan.t : 0);
    medians.resize(plan.t);
    for (size_t j = 0; j < plan.t; ++j) {
      sums[j].resize(groups, 0.0);
      if (plan.any_var) sums2[j].resize(groups, 0.0);
      if (plan.bindings[j].median) medians[j].resize(groups);
    }
  }

  // Adds a chunk's rows at offsets rows[0, m), ascending, to their groups
  // gids[row] — the one accumulation step. It runs one aggregate at a
  // time; each group still receives its values in row order.
  void AddRows(const MappedScanPlan& plan, const ChunkInputs& in,
               const uint32_t* rows, size_t m, const uint32_t* gids) {
    for (size_t i = 0; i < m; ++i) cnt[gids[rows[i]]]++;
    for (size_t j = 0; j < plan.t; ++j) {
      const MappedAggBinding& b = plan.bindings[j];
      if (b.constant_one) continue;
      double* s = sums[j].data();
      double* s2 = plan.any_var ? sums2[j].data() : nullptr;
      std::vector<double>* med = b.median ? medians[j].data() : nullptr;
      auto add = [&](auto value_of) {
        for (size_t i = 0; i < m; ++i) {
          const uint32_t g = gids[rows[i]];
          const double v = value_of(rows[i]);
          s[g] += v;
          if (s2 != nullptr) s2[g] += v * v;
          if (med != nullptr) med[g].push_back(v);
        }
      };
      if (b.filter != nullptr) {
        const uint8_t* ind = in.indicators[j].data();
        add([ind](uint32_t r) { return ind[r] ? 1.0 : 0.0; });
      } else if (in.cols[b.col]->type == DataType::kDouble) {
        const double* d = in.cols[b.col]->doubles.data();
        add([d](uint32_t r) { return d[r]; });
      } else {
        const int64_t* v = in.cols[b.col]->ints.data();
        add([v](uint32_t r) { return static_cast<double>(v[r]); });
      }
    }
  }
};

// Finalizes through the exact executor's own rules, then emits groups in
// first-occurrence order, omitting fully-filtered groups (IngestDense
// semantics).
Result<QueryResult> EmitMappedResult(const MappedTable& mt,
                                     const QuerySpec& query,
                                     const MappedScanPlan& plan,
                                     const StreamGroupRouter& router,
                                     MappedAccumulators&& ma) {
  const size_t t = plan.t;
  const size_t G = router.num_groups();
  ma.Resize(plan, G);
  GroupedAccumulators acc;
  acc.num_groups = G;
  acc.cnt = std::move(ma.cnt);
  acc.sums.assign(t * G, 0.0);
  if (plan.any_var) acc.sums2.assign(t * G, 0.0);
  acc.median_values.resize(t);
  for (size_t j = 0; j < t; ++j) {
    std::copy(ma.sums[j].begin(), ma.sums[j].end(), acc.sums.begin() + j * G);
    if (plan.any_var) {
      std::copy(ma.sums2[j].begin(), ma.sums2[j].end(),
                acc.sums2.begin() + j * G);
    }
    if (plan.bindings[j].median) acc.median_values[j] = std::move(ma.medians[j]);
  }
  std::vector<double> finals = FinalizeGrouped(query.aggregates, &acc);

  std::vector<std::string> agg_labels;
  agg_labels.reserve(t);
  for (const auto& a : query.aggregates) agg_labels.push_back(a.Label());
  QueryResult result(std::move(agg_labels), query.group_by);
  for (size_t g = 0; g < G; ++g) {
    if (acc.cnt[g] == 0) continue;
    std::vector<double> values(t);
    for (size_t j = 0; j < t; ++j) values[j] = finals[j * G + g];
    GroupKey key = router.KeyOf(g);
    std::string label = RenderLabel(mt, plan.gcols, key);
    CVOPT_RETURN_NOT_OK(
        result.AddGroup(std::move(key), std::move(label), std::move(values)));
  }
  return result;
}

ChunkVerdict ClassifyChunk(const MappedTable& mt, const MappedScanPlan& plan,
                           bool zones_on, size_t k) {
  if (plan.proto_where == nullptr || !zones_on) return ChunkVerdict::kResidual;
  const ChunkVerdict verdict = plan.proto_where->ClassifyZones(
      [&](uint32_t col) -> const ZoneMap& {
        return mt.zone_index().zone(col, k);
      });
  RecordZoneVerdict(verdict);
  return verdict;
}

// Fused serial scan: one pass, each chunk routing its rows and
// accumulating its survivors before the next is touched. Peak working
// memory is one chunk's projected columns plus the accumulators — the
// shape the budget-degraded path relies on — and per-group addition order
// is ascending row order, the same as the parallel scan's.
Result<QueryResult> ScanMappedSerial(const MappedTable& mt,
                                     const QuerySpec& query,
                                     const MappedScanPlan& plan) {
  StreamGroupRouter router(plan.gtypes);
  MappedAccumulators ma;
  std::vector<uint32_t> gids(mt.chunk_rows());
  const bool zones_on = ZoneMapPruningEnabled();
  for (size_t k = 0; k < mt.num_chunks(); ++k) {
    // Governance boundary of the streaming scan: one check per storage
    // chunk, never per row.
    CVOPT_RETURN_NOT_OK(CheckQueryAborted());
    CVOPT_FAILPOINT("exec.mapped.chunk");
    const ChunkVerdict verdict = ClassifyChunk(mt, plan, zones_on, k);
    // Every row is routed, even in a chunk no row of which survives, so
    // group ids follow first occurrence over the whole table.
    CVOPT_RETURN_NOT_OK(RouteChunk(mt, plan, k, &router, gids.data()));
    if (verdict == ChunkVerdict::kSkip) continue;
    ma.Resize(plan, router.num_groups());
    ChunkInputs in;
    CVOPT_RETURN_NOT_OK(LoadChunkInputs(mt, query, plan, k, verdict, &in));
    ma.AddRows(plan, in, in.survivors.data(), in.survivors.size(),
               gids.data());
  }
  return EmitMappedResult(mt, query, plan, router, std::move(ma));
}

// Morsel-parallel scan; the header describes its phases and contract.
// Phase 2 runs in waves of 2x the fan-out chunks. A chunk is bucketed by
// gid owner on its decode worker, so each owner visits only its own rows;
// owners walk chunks in order and rows ascending, so sums need no merge
// pass and no float reassociation.
Result<QueryResult> ScanMappedParallel(const MappedTable& mt,
                                       const QuerySpec& query,
                                       const MappedScanPlan& plan,
                                       MemoryReservation gid_res) {
  // ---- Phase 1.
  StreamGroupRouter router(plan.gtypes);
  const bool zones_on = ZoneMapPruningEnabled();
  const size_t num_chunks = mt.num_chunks();
  const size_t chunk_rows = mt.chunk_rows();
  std::vector<uint32_t> row_gids(mt.num_rows());
  std::vector<ChunkVerdict> verdicts(num_chunks, ChunkVerdict::kResidual);
  std::vector<size_t> survivors;  // chunks the zone maps could not refute
  survivors.reserve(num_chunks);
  for (size_t k = 0; k < num_chunks; ++k) {
    // Governance boundary of the streaming scan: one check per storage
    // chunk, never per row.
    CVOPT_RETURN_NOT_OK(CheckQueryAborted());
    CVOPT_FAILPOINT("exec.mapped.chunk");
    verdicts[k] = ClassifyChunk(mt, plan, zones_on, k);
    CVOPT_RETURN_NOT_OK(
        RouteChunk(mt, plan, k, &router, row_gids.data() + k * chunk_rows));
    if (verdicts[k] != ChunkVerdict::kSkip) survivors.push_back(k);
  }

  // Accumulators, allocated once — the group count is final after
  // discovery, so no per-row growth in the hot pass.
  const size_t t = plan.t;
  const size_t G = router.num_groups();
  MemoryReservation acc_res = ReserveMemoryOrThrow(
      G * (sizeof(uint64_t) + t * sizeof(double) * (plan.any_var ? 2 : 1)),
      "mapped scan accumulators");
  MappedAccumulators ma;
  ma.Resize(plan, G);

  // ---- Phase 2. Owners split [0, G) into contiguous gid ranges: gid g
  // belongs to owner (g * scale) >> 32 < owners, with no per-row division.
  const size_t threads = ResolveThreads();
  const size_t owners = std::max<size_t>(1, std::min(threads, G));
  const uint64_t scale = G == 0 ? 0 : (uint64_t{owners} << 32) / G;
  auto owner_of = [scale](uint32_t gid) { return (gid * scale) >> 32; };
  const size_t wave_cap = std::max<size_t>(1, 2 * threads);
  // Per row: survivor mask byte, survivor and bucketed offsets, COUNT_IF
  // bytes, each decoded column, and the predicate tables' column copies.
  auto width = [&](size_t c) -> size_t {
    return mt.schema().field(c).type == DataType::kString ? sizeof(int32_t)
                                                          : sizeof(int64_t);
  };
  size_t row_width = 1 + 2 * sizeof(uint32_t) + (plan.any_countif ? t : 0);
  const std::vector<size_t> pred_cols = Union(plan.where_cols,
                                              plan.countif_cols);
  for (size_t c : Union(pred_cols, plan.value_cols)) row_width += width(c);
  for (size_t c : pred_cols) row_width += width(c);
  if (pred_cols.empty() && (plan.proto_where != nullptr || plan.any_countif)) {
    row_width += sizeof(int64_t);  // LoadChunkInputs' placeholder column
  }
  MemoryReservation wave_res = ReserveMemoryOrThrow(
      std::min(wave_cap, survivors.size()) * chunk_rows * row_width,
      "mapped scan decode wave");

  struct WaveChunk {
    ChunkInputs in;
    const uint32_t* gids = nullptr;
    std::vector<uint32_t> rows;       // surviving offsets, owner-major
    std::vector<size_t> owner_base;   // owners + 1 offsets into rows
    Status status;
  };
  for (size_t w0 = 0; w0 < survivors.size(); w0 += wave_cap) {
    const size_t wn = std::min(wave_cap, survivors.size() - w0);
    std::vector<WaveChunk> wave(wn);
    // (a) Decode, masks, and owner buckets, one chunk per morsel. Failures
    // park in per-chunk Status slots (workers cannot early-return across
    // the pool) and surface in wave order below.
    ParallelForChunks(wn, wn, [&](size_t i, size_t, size_t) {
      WaveChunk& wc = wave[i];
      const size_t k = survivors[w0 + i];
      wc.gids = row_gids.data() + k * chunk_rows;
      wc.status = LoadChunkInputs(mt, query, plan, k, verdicts[k], &wc.in);
      if (!wc.status.ok()) return;
      // Counting sort of the survivors by owner; stable, so each bucket
      // keeps its rows ascending.
      wc.owner_base.assign(owners + 1, 0);
      if (owners == 1) {
        wc.owner_base[1] = wc.in.survivors.size();
        wc.rows = std::move(wc.in.survivors);
        return;
      }
      const std::vector<uint32_t>& live = wc.in.survivors;
      for (uint32_t r : live) wc.owner_base[owner_of(wc.gids[r]) + 1]++;
      for (size_t o = 0; o < owners; ++o) {
        wc.owner_base[o + 1] += wc.owner_base[o];
      }
      wc.rows.resize(live.size());
      std::vector<size_t> next(wc.owner_base.begin(), wc.owner_base.end() - 1);
      for (uint32_t r : live) wc.rows[next[owner_of(wc.gids[r])]++] = r;
    });
    for (const WaveChunk& wc : wave) CVOPT_RETURN_NOT_OK(wc.status);

    // (b) Each owner walks its own buckets into the global arrays.
    ParallelForChunks(owners, owners, [&](size_t o, size_t, size_t) {
      for (const WaveChunk& wc : wave) {
        ma.AddRows(plan, wc.in, wc.rows.data() + wc.owner_base[o],
                   wc.owner_base[o + 1] - wc.owner_base[o], wc.gids);
      }
    });
  }
  return EmitMappedResult(mt, query, plan, router, std::move(ma));
}

}  // namespace

Result<QueryResult> ExecuteGroupByMapped(const MappedTable& mt,
                                         const QuerySpec& query) {
 // The whole scan is one governed section: the discovery loop checks per
 // chunk, the parallel passes check at morsel boundaries through the shared
 // pool (surfacing as QueryAbortedError), and the working-set reservations
 // throw on refusal — all converted back to Status here.
 return GovernedSection([&]() -> Result<QueryResult> {
  CVOPT_ASSIGN_OR_RETURN(MappedScanPlan plan, PrepareMappedScan(mt, query));

  // The row->gid map is the parallel scan's one O(table) working set. When
  // the ambient budget cannot admit it, degrade to the fused serial scan —
  // identical output, one chunk's decode at a time — instead of failing:
  // the streaming path must keep answering under budgets that already
  // refused materialization.
  const QueryContext* ctx = CurrentQueryContext();
  if (ctx != nullptr) {
    Result<MemoryReservation> gid_res =
        const_cast<QueryContext*>(ctx)->TryReserve(
            mt.num_rows() * sizeof(uint32_t), "mapped scan row->group ids");
    if (!gid_res.ok()) return ScanMappedSerial(mt, query, plan);
    return ScanMappedParallel(mt, query, plan, std::move(gid_res).value());
  }
  return ScanMappedParallel(mt, query, plan, MemoryReservation());
 });
}

Result<QueryResult> ExecuteGroupByAdaptive(const MappedTable& mt,
                                           const QuerySpec& query) {
  // Try the parallel in-memory executor over the fully materialized table,
  // charging the decode to the ambient query budget; when the charge is
  // refused — or the in-memory run itself reports kResourceExhausted —
  // degrade to the streaming out-of-core scan. By ExecuteGroupByMapped's
  // determinism contract the two answers are bitwise equal at one thread
  // and agree within float-summation tolerance above it.
  const QueryContext* ctx = CurrentQueryContext();
  if (ctx != nullptr) {
    uint64_t bytes = 0;
    for (size_t c = 0; c < mt.num_columns(); ++c) {
      const DataType type = mt.schema().field(c).type;
      // Strings materialize as dictionary codes (uint32); numerics as
      // their 8-byte host representation.
      bytes += mt.num_rows() *
               (type == DataType::kString ? sizeof(uint32_t) : sizeof(int64_t));
    }
    auto* mut = const_cast<QueryContext*>(ctx);
    Result<MemoryReservation> res =
        mut->TryReserve(bytes, "materialized mapped table");
    if (res.ok()) {
      MemoryReservation guard = std::move(res).value();
      Result<Table> table = mt.Materialize();
      if (table.ok()) {
        Result<QueryResult> qr = ExecuteExact(table.value(), query);
        if (qr.ok() ||
            qr.status().code() != StatusCode::kResourceExhausted) {
          return qr;
        }
        // The in-memory run blew the budget mid-flight: release its
        // working set and retry below with the streaming scan.
      } else if (table.status().code() != StatusCode::kResourceExhausted) {
        return table.status();
      }
    }
  } else {
    CVOPT_ASSIGN_OR_RETURN(Table table, mt.Materialize());
    return ExecuteExact(table, query);
  }
  return ExecuteGroupByMapped(mt, query);
}

}  // namespace cvopt
