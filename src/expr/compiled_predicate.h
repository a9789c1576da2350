// CompiledPredicate: the vectorized predicate engine. Compiles a Predicate
// tree into a flat plan of typed columnar kernels that run directly over raw
// Column storage (int64 / double spans, dictionary codes) and produce or
// refine *selection vectors* instead of per-row dynamically-typed masks:
//
//   * comparisons against string columns are pre-resolved to per-dictionary-
//     code match tables (this covers =, !=, ordered compares, and IN), so
//     every string predicate is a byte-table lookup on the row's code;
//   * numeric IN lists become dense bitsets (small int spans) or sorted,
//     NaN-stripped literal arrays probed by branch-free binary search;
//   * comparisons of int64 columns against double literals are rewritten
//     into the int domain (ceil/floor with saturation), so the int kernels
//     never round through double;
//   * AND nodes short-circuit by refining the current selection vector in
//     place — later conjuncts only inspect surviving rows — instead of
//     materializing both child masks;
//   * OR / NOT subtrees evaluate compact uint8 masks over the surviving
//     candidate set only.
//
// NaN semantics (mirrored by Predicate::Matches and pinned by the
// differential tests): a NaN column value matches no Compare / BETWEEN / IN
// predicate — including `!=` — and a NaN literal or bound matches nothing.
//
// Zone-map chunk skipping: the plan also borrows the Table's per-chunk
// ZoneMapIndex. Select / SelectRange / EvalMaskRange classify each storage
// chunk through the plan tree with three-valued logic — a provably-false
// chunk is skipped without touching row data, a provably-true chunk emits
// a dense run of row ids, and only residual chunks hit the columnar
// kernels. Classification is an exact implication (NaN rows never match,
// pinned by the nan_count zone field), so the output is bit-identical to
// the flat scan for every chunk size; SetZoneMapPruningEnabled(false)
// forces the flat path (the differential oracle and bench baseline).
//
// The compiled plan borrows raw pointers into the Table's column storage;
// the Table must outlive the CompiledPredicate and must not be appended to
// while the plan is in use.
#ifndef CVOPT_EXPR_COMPILED_PREDICATE_H_
#define CVOPT_EXPR_COMPILED_PREDICATE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/expr/predicate.h"
#include "src/table/table.h"
#include "src/util/status.h"

namespace cvopt {

/// Three-valued zone-map verdict for one storage chunk.
enum class ChunkVerdict : uint8_t {
  kResidual = 0,  // zone maps cannot decide; run the kernels
  kSkip = 1,      // provably no row in the chunk matches
  kTakeAll = 2,   // provably every row in the chunk matches
};

/// Process-wide zone-skip observability (benches, tests). `chunks` counts
/// every chunk classified by a Select/EvalMask driver; `skipped` and
/// `take_all` the chunks resolved without running kernels.
struct ZoneSkipStats {
  uint64_t chunks = 0;
  uint64_t skipped = 0;
  uint64_t take_all = 0;
};
ZoneSkipStats GetZoneSkipStats();
void ResetZoneSkipStats();
/// Records a verdict in the process-wide stats — for chunk loops that live
/// outside the predicate drivers (the out-of-core scan).
void RecordZoneVerdict(ChunkVerdict v);

class CompiledPredicate {
 public:
  /// Compiles `pred` against `table`, resolving columns, validating types,
  /// and pre-computing code tables / literal sets. All type errors the old
  /// row-at-a-time evaluator reported per evaluation surface here instead.
  static Result<CompiledPredicate> Compile(const Table& table,
                                           const Predicate& pred);

  /// Convenience overload: a null predicate compiles to constant-true.
  static Result<CompiledPredicate> Compile(const Table& table,
                                           const PredicatePtr& pred);

  /// Number of table rows the plan was compiled for.
  size_t table_rows() const { return n_; }

  /// Indexes of the table columns the predicate names, ascending and
  /// distinct — including columns whose leaves folded to constants, so a
  /// Table carrying just these columns (under the same names) recompiles
  /// the same predicate. The out-of-core scan's column projection.
  const std::vector<uint32_t>& referenced_columns() const { return cols_; }

  /// Selection vector of all matching table rows, ascending.
  std::vector<uint32_t> Select() const;

  /// Selection vector of the matching table rows in [lo, hi), ascending —
  /// the per-morsel unit of parallel selection: concatenating the results
  /// of consecutive ranges reproduces Select() exactly.
  std::vector<uint32_t> SelectRange(size_t lo, size_t hi) const;

  /// Byte mask over table rows [lo, hi): out[i] = 1 iff row lo + i matches.
  /// EvalMaskRange(0, n, out) == EvalMask(nullptr, n, out).
  void EvalMaskRange(size_t lo, size_t hi, uint8_t* out) const;

  /// Selection of positions p in [0, n) such that base_rows[p] matches.
  /// With base_rows == nullptr, positions are table rows (== Select()).
  std::vector<uint32_t> SelectPositions(const uint32_t* base_rows,
                                        size_t n) const;

  /// Refines an existing selection in place, keeping matching entries in
  /// order. Entries are positions into base_rows (table rows if nullptr).
  void Refine(const uint32_t* base_rows, std::vector<uint32_t>* sel) const;

  /// Byte mask aligned with positions [0, n): out[p] = 1 iff the row at
  /// position p (base_rows[p], or p itself if base_rows == nullptr) matches.
  void EvalMask(const uint32_t* base_rows, size_t n, uint8_t* out) const;

  /// Allocation-free scalar evaluation of one table row.
  bool MatchesRow(size_t row) const;

  /// Zone-map verdict via a caller-supplied zone source (column index ->
  /// that column's ZoneMap for one chunk). Exact implications: kSkip means
  /// no row matches, kTakeAll every row. Used directly by the out-of-core
  /// scan, whose zone maps live in the file rather than in a Table.
  using ZoneOfColumn = std::function<const ZoneMap&(uint32_t col)>;
  ChunkVerdict ClassifyZones(const ZoneOfColumn& zone_of_col) const;

  /// Zone-map verdict for chunk `chunk` of the compiled-against table
  /// (kResidual when the table has no zone index).
  ChunkVerdict ClassifyChunk(size_t chunk) const;

  /// Storage-chunk granularity the zone-skipping drivers operate at, or 0
  /// when pruning is unavailable/disabled (morsel alignment consults this).
  size_t zone_chunk_rows() const;

 private:
  enum class LeafKind {
    kIntCmp,       // int64 column <op> int64 literal
    kDblCmp,       // double column <op> double literal (NaN never matches)
    kIntBetween,   // int64 column in [ilo, ihi]
    kDblBetween,   // double column in [dlo, dhi]
    kCodeTable,    // string column: match_table[code] (compare + IN)
    kIntInBitset,  // int64 column: bitset over [base, base + span]
    kIntInSorted,  // int64 column: sorted literal array
    kDblInSorted,  // double column: sorted NaN-free literal array
  };

  struct Leaf {
    LeafKind kind = LeafKind::kIntCmp;
    CompareOp op = CompareOp::kEq;
    uint32_t col = 0;  // table column index (zone-map classification)
    const int64_t* i64 = nullptr;
    const double* f64 = nullptr;
    const int32_t* codes = nullptr;
    int64_t ilit = 0;
    int64_t ilo = 0, ihi = 0;
    double dlit = 0.0;
    double dlo = 0.0, dhi = 0.0;
    int64_t base = 0;                  // kIntInBitset
    std::vector<uint64_t> bits;        // kIntInBitset
    std::vector<uint8_t> match_table;  // kCodeTable, indexed by code
    std::vector<int64_t> ivals;        // kIntInSorted + kIntInBitset (zones)
    std::vector<double> dvals;         // kDblInSorted
  };

  enum class NodeKind { kConst, kLeaf, kAnd, kOr, kNot };

  // Flat plan node. kAnd/kOr children live in child_ids_[child_begin ..
  // child_begin + child_count); kNot uses the same span with one entry.
  struct Node {
    NodeKind kind = NodeKind::kConst;
    bool value = false;    // kConst
    uint32_t leaf = 0;     // kLeaf: index into leaves_
    uint32_t child_begin = 0;
    uint32_t child_count = 0;
  };

  CompiledPredicate() = default;

  Result<uint32_t> CompileNode(const Table& table, const Predicate& pred);
  uint32_t AddConst(bool value);
  uint32_t AddLeaf(Leaf leaf);
  uint32_t AddBoolNode(NodeKind kind, uint32_t a, uint32_t b);
  uint32_t AddNotNode(uint32_t child);

  // Dispatches `fn` with a fully-typed kernel object for `leaf`; the switch
  // on kind/op happens once per call, so the driver loops inline the typed
  // Test. Defined in the .cc (all instantiations are internal).
  template <class Fn>
  static void VisitLeaf(const Leaf& leaf, Fn&& fn);
  // Invokes `fn` with a typed kernel if `node` is a leaf or NOT(leaf);
  // returns false for other shapes.
  template <class Fn>
  bool VisitSimple(uint32_t node, Fn&& fn) const;

  Result<uint32_t> CompileCompare(const Table& table, const Predicate& pred);
  Result<uint32_t> CompileBetween(const Table& table, const Predicate& pred);
  Result<uint32_t> CompileIn(const Table& table, const Predicate& pred);

  // Evaluation over the flat plan. `rows` maps positions to table rows;
  // with rows == nullptr, position i is table row base + i (base lets the
  // morsel scheduler evaluate a row range with no gathered row vector).
  // Selection vectors hold positions.
  void EvalMaskNode(uint32_t node, const uint32_t* rows, size_t base,
                    size_t n, uint8_t* out) const;
  void AndIntoNode(uint32_t node, const uint32_t* rows, size_t base, size_t n,
                   uint8_t* inout) const;
  void OrIntoNode(uint32_t node, const uint32_t* rows, size_t base, size_t n,
                  uint8_t* inout) const;
  void RefineNode(uint32_t node, const uint32_t* rows,
                  std::vector<uint32_t>* sel) const;
  void SeedSelect(uint32_t node, const uint32_t* rows, size_t n,
                  std::vector<uint32_t>* out) const;
  void SeedSelectRange(uint32_t node, size_t lo, size_t hi,
                       std::vector<uint32_t>* out) const;
  bool TestNode(uint32_t node, size_t row) const;

  // Three-valued zone classification over the plan tree.
  ChunkVerdict ClassifyNode(uint32_t node, const ZoneOfColumn& zones) const;
  static ChunkVerdict ClassifyLeafZone(const Leaf& leaf, const ZoneMap& z);

  std::vector<Leaf> leaves_;
  std::vector<Node> nodes_;
  std::vector<uint32_t> child_ids_;
  uint32_t root_ = 0;
  size_t n_ = 0;
  std::vector<uint32_t> cols_;  // referenced_columns()
  // Borrowed zone index of the compiled-against table (same lifetime as the
  // raw column spans above; survives Table moves because the index is
  // heap-owned by the table). Null only for the default-constructed plan.
  const ZoneMapIndex* zones_ = nullptr;
};

}  // namespace cvopt

#endif  // CVOPT_EXPR_COMPILED_PREDICATE_H_
