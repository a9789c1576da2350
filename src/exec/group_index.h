// GroupIndex: the shared vectorized group-id pipeline. It maps every row of
// a Table (or a caller-chosen subset of rows, e.g. a sample) to a dense
// uint32 group id — one id per distinct combination of the grouping
// attributes, assigned in first-seen row order. The exact executor, the
// approximate executor, stratification, and workload deduction all consume
// the row->group mapping and accumulate into flat arrays indexed by group id.
//
// Group keys are flat: one int64 code per grouping column (an int column's
// value, a string column's dictionary code), keys laid out row-major with
// stride = arity. GroupIndex, StreamGroupRouter, Stratification and
// QueryResult all hold keys this way, and AppendKeyLabel renders them.
#ifndef CVOPT_EXEC_GROUP_INDEX_H_
#define CVOPT_EXEC_GROUP_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/exec/parallel.h"
#include "src/table/table.h"
#include "src/util/status.h"

namespace cvopt {

/// The radix-partition artifact of a partitioned GroupIndex build: the one
/// row->partition->group decomposition every grouped pass above the build
/// (aggregation, stratification, statistics, the stratified draw) can
/// consume instead of re-deriving its own row bucketing.
///
/// Rows are hash-partitioned by their grouping key, so a partition owns its
/// groups outright: every row of a group lands in the same partition, and
/// the global dense ids owned by distinct partitions are disjoint. Within a
/// partition the row list is in ascending position order, which is what
/// lets consumers reproduce the serial pass bit for bit (per-group value
/// sequences are exactly the serial ascending-row sequences). Local ids
/// carry no ordering contract — the hash discovery assigns them in
/// first-seen order, the sort-based discovery in sorted-key order — so
/// consumers must map locals through local_to_global (which IS in global
/// first-seen order) before touching shared state; all of them do.
struct GroupPartitions {
  /// Mapped positions, partition-major: partition p's positions are
  /// part_rows[part_base[p] .. part_base[p+1]), ascending within p.
  std::vector<uint32_t> part_rows;
  /// Partition-local group id of each part_rows entry (aligned).
  std::vector<uint32_t> part_local;
  /// P + 1 offsets into part_rows / part_local.
  std::vector<size_t> part_base;
  /// Concatenated per-partition local->global dense-id maps: partition p's
  /// local id l maps to local_to_global[group_base[p] + l]. The global id
  /// sets of distinct partitions are disjoint (partition-owned group
  /// ranges), so writes indexed by a partition's global ids never contend.
  std::vector<uint32_t> local_to_global;
  /// P + 1 offsets into local_to_global.
  std::vector<size_t> group_base;

  size_t num_partitions() const {
    return part_base.empty() ? 0 : part_base.size() - 1;
  }
  size_t num_groups_in(size_t p) const {
    return group_base[p + 1] - group_base[p];
  }
  size_t num_rows_in(size_t p) const {
    return part_base[p + 1] - part_base[p];
  }
};

/// Partition-owned slab accumulation over a GroupPartitions artifact — the
/// one shape of every partition-owned SUM/VAR-style pass and masked count
/// (group-by executor: sums, moments, weight sums, counts). For each
/// partition p (claimed dynamically through the shared pool), zeroed slabs
/// s1 (and s2 when `use_s2`) of T over the partition's own group count are
/// handed to `acc(p, s1, s2)`, which iterates the partition's ascending row
/// list adding per-LOCAL-group values; the slabs are then written out at
/// the partition's global ids into S1/S2. Partitions own disjoint global id
/// sets, so the scattered writes never contend, and per-group results
/// equal the serial ascending-row accumulation bit for bit — no chunk
/// merge, no float reassociation.
template <class T, class Acc>
void AccumulatePartitioned(const GroupPartitions& gp, bool use_s2, T* S1,
                           T* S2, Acc&& acc) {
  ParallelForChunks(
      gp.num_partitions(), gp.num_partitions(), [&](size_t p, size_t, size_t) {
        const size_t gb = gp.group_base[p];
        const size_t ng = gp.num_groups_in(p);
        std::vector<T> s1(ng, T{0});
        std::vector<T> s2(use_s2 ? ng : 0, T{0});
        acc(p, s1.data(), use_s2 ? s2.data() : nullptr);
        for (size_t l = 0; l < ng; ++l) {
          S1[gp.local_to_global[gb + l]] = s1[l];
          if (use_s2) S2[gp.local_to_global[gb + l]] = s2[l];
        }
      });
}

/// Everything besides the table data and the mapped rows that a build
/// reads: the resolved thread count and the chunking it gives, the radix
/// test override, the forced aggregation path and the occupancy hint in
/// scope. Together they decide whether the build is partitioned, and so
/// the summation order of every pass that consumes the index. Two builds
/// over the same rows under equal settings produce identical indexes, the
/// partition artifact included — which is what lets a cached index stand
/// in for a fresh build (StratifiedSample::GroupIndexFor).
struct GroupIndexBuildSettings {
  size_t threads = 0;
  size_t chunks = 0;
  int radix_mode = -1;
  size_t radix_partitions = 0;
  int agg_path = -1;
  size_t occupancy_hint = 0;

  bool operator==(const GroupIndexBuildSettings& o) const {
    return threads == o.threads && chunks == o.chunks &&
           radix_mode == o.radix_mode &&
           radix_partitions == o.radix_partitions && agg_path == o.agg_path &&
           occupancy_hint == o.occupancy_hint;
  }
};

/// Dense row -> group-id mapping for a set of grouping attributes.
///
/// Build tiers, chosen per key shape:
///   kDirect — a single dictionary-encoded string column, a single
///             small-domain int column, or a multi-column key whose packed
///             code domain is small: ids come from a dense remap array
///             indexed by the (packed) code, no hashing at all.
///   kPacked — keys whose per-column code domains bit-pack into one uint64:
///             flat open-addressing table (power-of-two capacity, linear
///             probing), no per-key heap allocation. On this tier the
///             adaptive planner (src/exec/agg_planner.h) may swap the
///             per-partition hash probing for a stable LSD radix sort of
///             the packed keys when the estimated cardinality is huge —
///             group ids, ordering, and downstream sums are bit-identical
///             either way (see CVOPT_AGG_PATH / SetAggPathOverrideForTesting).
///   kWide   — everything else (e.g. several full-range int columns): rows
///             hash via HashCombine over their codes into the same flat
///             table layout, with a full key comparison against each
///             group's representative row on probe.
class GroupIndex {
 public:
  enum class Tier { kDirect, kPacked, kWide };

  /// Resolves grouping attribute names to column indices. Doubles are not
  /// groupable. This is the single source of group-by column validation
  /// (previously copy-pasted in the exact executor, the approximate
  /// executor, and stratification).
  static Result<std::vector<size_t>> Resolve(const Table& table,
                                             const std::vector<std::string>& attrs);

  /// Builds the index over every table row. Empty `attrs` yields a single
  /// group covering the whole table.
  static Result<GroupIndex> Build(const Table& table,
                                  const std::vector<std::string>& attrs);

  /// Builds over a subset of rows (sample positions): group_of(i) is the
  /// group of table row rows[i]. Ids are dense over the groups that occur
  /// in `rows`, in first-seen position order.
  static Result<GroupIndex> BuildForRows(const Table& table,
                                         const std::vector<std::string>& attrs,
                                         const std::vector<uint32_t>& rows);

  /// The settings a build over `n` positions would read on this thread
  /// right now.
  static GroupIndexBuildSettings CurrentBuildSettings(size_t n);

  size_t num_groups() const { return rep_rows_.size(); }
  /// Number of mapped positions (table rows for Build, sample positions for
  /// BuildForRows).
  size_t num_rows() const { return row_groups_.size(); }

  const std::vector<uint32_t>& row_groups() const { return row_groups_; }
  uint32_t group_of(size_t i) const { return row_groups_[i]; }

  /// Rows mapped to each group (the stratification's n_c).
  const std::vector<uint64_t>& sizes() const { return sizes_; }

  const std::vector<size_t>& column_indices() const { return cols_; }
  Tier tier() const { return tier_; }

  /// Appends group g's key codes (one int64 per grouping column, read from
  /// its representative row) to *out.
  void AppendKeyCodes(size_t g, std::vector<int64_t>* out) const;
  /// Every group's key codes, row-major in id order.
  std::vector<int64_t> KeyCodes() const;
  size_t key_arity() const { return cols_.size(); }

  /// The table the index was built over.
  const Table& table() const { return *table_; }

  /// Human-readable label of group g, e.g. "US|pm25".
  std::string Label(size_t g) const;

  /// Move-out accessors for callers that keep the mapping (Stratification).
  std::vector<uint32_t> TakeRowGroups() { return std::move(row_groups_); }
  std::vector<uint64_t> TakeSizes() { return std::move(sizes_); }

  /// The radix-partition artifact, when the partitioned build ran (huge
  /// estimated group cardinality and a parallel chunking); null when the
  /// chunk-merge path was used. Dense ids are bit-identical either way —
  /// the artifact only adds the partition-owned decomposition for
  /// downstream passes to reuse.
  const std::shared_ptr<const GroupPartitions>& partitions() const {
    return partitions_;
  }

  /// Test-only override of the radix-path decision. mode < 0 restores the
  /// automatic heuristic (cardinality estimate + thread count); 0 forces
  /// the chunk-merge path; > 0 forces the radix path even for tiny inputs
  /// and serial runs. `partitions` > 0 pins the partition count (rounded to
  /// a power of two, capped at 256); 0 derives it from the thread count.
  static void SetRadixOverrideForTesting(int mode, size_t partitions = 0);

 private:
  GroupIndex() = default;

  const Table* table_ = nullptr;
  std::vector<size_t> cols_;
  Tier tier_ = Tier::kDirect;
  std::vector<uint32_t> row_groups_;  // position -> group id
  std::vector<uint32_t> rep_rows_;    // group id -> representative table row
  std::vector<uint64_t> sizes_;       // group id -> occurrence count
  std::shared_ptr<const GroupPartitions> partitions_;  // radix builds only
};

/// Raw grouping codes of one caller-held chunk of rows for one grouping
/// column: `ints` for an int64 column, `codes` (dictionary codes) for a
/// string column. Row i of the chunk is ints[i] / codes[i].
struct GroupCodeSpan {
  const int64_t* ints = nullptr;
  const int32_t* codes = nullptr;
};

/// Incremental dense-id router for streaming rows — the one-pass analogue
/// of GroupIndex::Build's packed/wide tiers. Rows arrive one at a time with
/// no pre-scan, and each maps to a dense group id in first-seen order, so a
/// table replayed in row order yields exactly GroupIndex::Build's
/// row_groups ids. Per-column codes bit-pack into one uint64 while they fit
/// (strings by dictionary code, ints as the offset from the smallest value
/// seen, so a narrow range packs tightly wherever it sits); field widths
/// start minimal and widen as larger codes — or smaller ints, which move
/// the base — appear mid-stream (dictionary growth), re-packing the
/// already-routed groups from their stored codes. Once the packed widths
/// exceed 64 bits the router switches permanently to the wide tier
/// (composite hash + stored-code compare). The Route path performs no
/// per-row code-vector writes or per-key heap allocation.
///
/// Two row sources: a Table-bound router (streaming sampler) routes table
/// rows through Route / RouteBatch; a span-bound router routes chunks of
/// rows straight from caller-supplied code spans through RouteSpans, so
/// decoded storage chunks (out-of-core scan) or gathered key columns
/// (stratification projections, cube rollups, result matching) are read in
/// place. Both feed the same tiers, so a chunked replay of a table's rows
/// assigns the same ids as Route over those rows. This is the one interner
/// of flat code arrays: a key set already held as codes is deduplicated by
/// routing its columns through a span-bound router declared all-int64.
class StreamGroupRouter {
 public:
  /// `cols` are grouping column indices in `table` (int64 or string; an
  /// empty list routes every row to group 0). The table must outlive the
  /// router; rows passed to Route must already be materialized. Column
  /// storage is re-read through the Table on every Route, so streams that
  /// append rows between offers (reallocating the columns) stay valid.
  StreamGroupRouter(const Table* table, std::vector<size_t> cols,
                    size_t expected_groups = 0);

  /// Span-bound router over grouping columns of the given types (int64 or
  /// string), fed only through RouteSpans.
  explicit StreamGroupRouter(const std::vector<DataType>& types,
                             size_t expected_groups = 0);

  /// Dense id of the row's group, assigning the next id on first sight
  /// (`Route(r) == num_groups()-before` detects a new group). Table-bound
  /// routers only.
  uint32_t Route(uint32_t row);

  /// Batched Route: writes out[i] = Route(rows[i]) for i in [0, n), with
  /// identical id assignment and tier transitions to the per-row loop (the
  /// batch pipelines key packing + hashing + slot prefetch on the packed
  /// tier and degrades to per-row Route on widening or the wide tier).
  /// Table-bound routers only.
  void RouteBatch(const uint32_t* rows, size_t n, uint32_t* out);

  /// Routes the n rows of one caller-held chunk: spans[j] holds grouping
  /// column j's codes for those rows. out[i] is row i's dense id, assigned
  /// exactly as n successive Route calls over the same codes would (field
  /// widening, and so the switch to the wide tier, may come up to one
  /// internal block of rows earlier). The spans are read only during the
  /// call.
  void RouteSpans(const GroupCodeSpan* spans, size_t n, uint32_t* out);

  size_t num_groups() const { return groups_; }
  size_t arity() const { return plans_.size(); }
  /// False once the router has fallen back to the wide (hash + compare)
  /// tier; true while keys still bit-pack into one word.
  bool packed() const { return !wide_; }

  /// Every group's raw codes, row-major: group g's key is
  /// codes()[g * arity() .. (g + 1) * arity()), the codes GroupIndex
  /// gathers for the same columns.
  const std::vector<int64_t>& codes() const { return codes_; }

 private:
  struct ColPlan {
    const Column* col = nullptr;  // null for span-bound routers
    bool is_string = false;       // dictionary codes vs raw int64 values
    int bits = 1;                 // current packed field width
    int shift = 0;
    int64_t base = 0;             // ints: smallest code seen so far
    bool based = false;           // ints: base set by the first code
    GroupCodeSpan span;           // codes of the rows being routed
  };
  struct Slot {
    uint64_t key = 0;  // packed key (packed tier) or composite hash (wide)
    uint32_t id = UINT32_MAX;
  };

  // The one raw-code -> packed-field mapping (dictionary codes verbatim,
  // ints as the offset from the column's base): probing on a live row and
  // re-packing a stored group MUST agree byte for byte, so both go through
  // this helper.
  static uint64_t PackRaw(int64_t raw, const ColPlan& p);
  // True when raw codes in [lo, hi] pack into p's current field.
  static bool Fits(const ColPlan& p, int64_t lo, int64_t hi);

  void InitLayout(size_t expected_groups);
  // Points every plan's span at its Table column's current storage.
  void BindTableColumns();
  int64_t RawCode(const ColPlan& p, uint32_t row) const;
  // Block helpers of RouteSpans over rows [lo, lo + m) of the bound spans.
  static void SpanRange(const ColPlan& p, size_t lo, size_t m,
                        int64_t* min_raw, int64_t* max_raw);
  static void PackSpan(const ColPlan& p, size_t lo, size_t m, uint64_t* keys);
  uint64_t PackGroup(size_t g) const;
  uint64_t WideHashRow(uint32_t row) const;
  uint64_t WideHashGroup(size_t g) const;
  bool GroupEqualsRow(size_t g, uint32_t row) const;
  // The one slot-placement rule (packed keys position by HashMix64, wide
  // hashes by themselves; masked linear probe to an empty slot) — shared by
  // growth and rebuild so relocated slots stay findable by Route's probes.
  void PlaceSlot(std::vector<Slot>& slots, size_t mask, Slot s) const;
  uint32_t Insert(size_t idx, uint64_t key, uint32_t row);
  // Re-lays the fields so column `col` admits raw codes in [lo, hi].
  void Widen(size_t col, int64_t lo, int64_t hi);
  void Rebuild();
  void GrowSlots();
  // Route / RouteBatch over rows of the currently bound spans; RowAt maps
  // a batch position to its row. Defined (and instantiated) in the .cc.
  uint32_t RouteBound(uint32_t row);
  template <class RowAt>
  void RouteBatchBound(RowAt row_at, size_t n, uint32_t* out);
  // Packed-tier lookup of m keys (dense remap or hash probe), inserting
  // misses in position order; row_at(i) is key i's row.
  template <class RowAt>
  void LookupKeys(const uint64_t* keys, size_t m, RowAt row_at,
                  uint32_t* out);
  uint32_t RouteWide(uint32_t row);

  std::vector<ColPlan> plans_;
  int total_bits_ = 0;
  bool wide_ = false;
  std::vector<Slot> slots_;  // power-of-two size
  size_t mask_ = 0;
  // Packed key -> id while the packed layout is small; empty otherwise.
  // Kept alongside slots_, which stay complete on every tier.
  std::vector<uint32_t> direct_;
  std::vector<int64_t> codes_;  // group g's raw codes at [g*arity, (g+1)*arity)
  size_t groups_ = 0;
};

/// Routes n flat keys through a span-bound router declared all-int64 with
/// positions.size() columns: key i is row i of the row-major code array
/// `codes` (stride `stride`), projected onto the columns `positions`.
/// ids[i] receives its dense id, so keys are deduplicated in first-seen
/// order and router->codes() holds the distinct projected keys.
void RouteKeyColumns(const int64_t* codes, size_t n, size_t stride,
                     const std::vector<size_t>& positions,
                     StreamGroupRouter* router, uint32_t* ids);

/// Per-column dictionaries of a flat key: the column's string dictionary,
/// or null for an int64 column.
using KeyDicts = std::vector<const std::vector<std::string>*>;

/// The dictionaries of `cols` of a table with `schema`: dictionary(c) for a
/// string column, null for an int64 column. The one place that decides which
/// key columns render through a dictionary.
KeyDicts KeyDictsOf(
    const Schema& schema, const std::vector<size_t>& cols,
    const std::function<const std::vector<std::string>&(size_t)>& dictionary);

/// The dictionaries of `cols` in `table`.
KeyDicts KeyDictsOf(const Table& table, const std::vector<size_t>& cols);

/// Appends the label of one flat key of dicts.size() codes to *out:
/// "v1|v2|...", dictionary strings for string columns (a code outside the
/// dictionary renders as "<code>") and decimal values for int columns. The
/// one label renderer of every result and stratum.
void AppendKeyLabel(const int64_t* codes, const KeyDicts& dicts,
                    std::string* out);

}  // namespace cvopt

#endif  // CVOPT_EXEC_GROUP_INDEX_H_
