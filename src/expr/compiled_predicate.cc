#include "src/expr/compiled_predicate.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "src/expr/compare_plan.h"
#include "src/util/simd.h"

namespace cvopt {

namespace {

// --------------------------------------------------- zone-skip observability

std::atomic<uint64_t> g_zone_chunks{0};
std::atomic<uint64_t> g_zone_skipped{0};
std::atomic<uint64_t> g_zone_take_all{0};

inline void CountVerdict(ChunkVerdict v) {
  g_zone_chunks.fetch_add(1, std::memory_order_relaxed);
  if (v == ChunkVerdict::kSkip) {
    g_zone_skipped.fetch_add(1, std::memory_order_relaxed);
  } else if (v == ChunkVerdict::kTakeAll) {
    g_zone_take_all.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

ZoneSkipStats GetZoneSkipStats() {
  ZoneSkipStats s;
  s.chunks = g_zone_chunks.load(std::memory_order_relaxed);
  s.skipped = g_zone_skipped.load(std::memory_order_relaxed);
  s.take_all = g_zone_take_all.load(std::memory_order_relaxed);
  return s;
}

void ResetZoneSkipStats() {
  g_zone_chunks.store(0, std::memory_order_relaxed);
  g_zone_skipped.store(0, std::memory_order_relaxed);
  g_zone_take_all.store(0, std::memory_order_relaxed);
}

void RecordZoneVerdict(ChunkVerdict v) { CountVerdict(v); }

namespace {

// ---------------------------------------------------------------- kernels
// Each kernel is a tiny POD with an inline Test(row) over raw storage; the
// driver loops below are templated on the kernel so the per-row work
// compiles to a typed, branch-light inner loop.

struct OpEq {
  template <class T>
  static bool Apply(const T& a, const T& b) { return a == b; }
};
struct OpNe {
  template <class T>
  static bool Apply(const T& a, const T& b) { return a != b; }
};
struct OpLt {
  template <class T>
  static bool Apply(const T& a, const T& b) { return a < b; }
};
struct OpLe {
  template <class T>
  static bool Apply(const T& a, const T& b) { return a <= b; }
};
struct OpGt {
  template <class T>
  static bool Apply(const T& a, const T& b) { return a > b; }
};
struct OpGe {
  template <class T>
  static bool Apply(const T& a, const T& b) { return a >= b; }
};

template <class Op>
struct IntCmpK {
  const int64_t* v;
  int64_t lit;
  bool Test(size_t r) const { return Op::Apply(v[r], lit); }
};

template <class Op>
struct DblCmpK {
  const double* v;
  double lit;
  bool Test(size_t r) const { return Op::Apply(v[r], lit); }
};

// `!=` on doubles with the deterministic-NaN contract: NaN matches nothing.
struct DblNeK {
  const double* v;
  double lit;
  bool Test(size_t r) const {
    const double x = v[r];
    return x == x && x != lit;
  }
};

struct IntBetweenK {
  const int64_t* v;
  int64_t lo;
  uint64_t span;  // hi - lo, two's-complement
  bool Test(size_t r) const {
    return static_cast<uint64_t>(v[r]) - static_cast<uint64_t>(lo) <= span;
  }
};

struct DblBetweenK {
  const double* v;
  double lo, hi;
  bool Test(size_t r) const {
    const double x = v[r];
    return x >= lo && x <= hi;  // false for NaN x
  }
};

struct CodeTableK {
  const int32_t* codes;
  const uint8_t* match;
  bool Test(size_t r) const { return match[codes[r]] != 0; }
};

struct IntInBitsetK {
  const int64_t* v;
  int64_t base;
  uint64_t span;  // bits.size() * 64 - 1
  const uint64_t* bits;
  bool Test(size_t r) const {
    const uint64_t d =
        static_cast<uint64_t>(v[r]) - static_cast<uint64_t>(base);
    return d <= span && ((bits[d >> 6] >> (d & 63)) & 1) != 0;
  }
};

struct IntInSortedK {
  const int64_t* v;
  const int64_t* first;
  const int64_t* last;
  bool Test(size_t r) const { return std::binary_search(first, last, v[r]); }
};

struct DblInSortedK {
  const double* v;
  const double* first;
  const double* last;
  bool Test(size_t r) const {
    const double x = v[r];
    // The x == x guard keeps NaN out of binary_search: with NaN all
    // comparisons are false, so the search would report a bogus match.
    return x == x && std::binary_search(first, last, x);
  }
};

template <class K>
struct NotK {
  K k;
  bool Test(size_t r) const { return !k.Test(r); }
};

// ------------------------------------------------------ SIMD kernel bridge
// Vec<K> maps a scalar kernel POD onto the portable SIMD layer's function
// table (src/util/simd.h); the drivers below consult it once per loop and
// fall through to their scalar bodies when no backend is active. Kernels
// without a vector counterpart — dictionary code tables, sorted IN lists,
// NOT-wrapped kernels — keep kOk = false and always run scalar. NaN
// literals never reach these kernels (compilation folds them to
// constants), so the backends' ordered comparison semantics match the
// scalar Test()s row-for-row.

template <class Op>
struct SimdOp;
template <>
struct SimdOp<OpEq> { static constexpr int kIdx = simd::kEq; };
template <>
struct SimdOp<OpNe> { static constexpr int kIdx = simd::kNe; };
template <>
struct SimdOp<OpLt> { static constexpr int kIdx = simd::kLt; };
template <>
struct SimdOp<OpLe> { static constexpr int kIdx = simd::kLe; };
template <>
struct SimdOp<OpGt> { static constexpr int kIdx = simd::kGt; };
template <>
struct SimdOp<OpGe> { static constexpr int kIdx = simd::kGe; };

template <class K>
struct Vec {
  static constexpr bool kOk = false;
};

template <class Op>
struct Vec<IntCmpK<Op>> {
  static constexpr bool kOk = true;
  static size_t Select(const simd::Ops& o, const IntCmpK<Op>& k, size_t lo,
                       size_t hi, uint32_t* out) {
    return o.select_cmp_i64[SimdOp<Op>::kIdx](k.v, k.lit, lo, hi, out);
  }
  static size_t Refine(const simd::Ops& o, const IntCmpK<Op>& k,
                       const uint32_t* rows, uint32_t* sel, size_t n) {
    return o.refine_cmp_i64[SimdOp<Op>::kIdx](k.v, k.lit, rows, sel, n);
  }
  static void Mask(const simd::Ops& o, const IntCmpK<Op>& k, size_t lo,
                   size_t hi, uint8_t* out) {
    o.mask_cmp_i64[SimdOp<Op>::kIdx](k.v, k.lit, lo, hi, out);
  }
};

template <class Op>
struct Vec<DblCmpK<Op>> {
  static constexpr bool kOk = true;
  static size_t Select(const simd::Ops& o, const DblCmpK<Op>& k, size_t lo,
                       size_t hi, uint32_t* out) {
    return o.select_cmp_f64[SimdOp<Op>::kIdx](k.v, k.lit, lo, hi, out);
  }
  static size_t Refine(const simd::Ops& o, const DblCmpK<Op>& k,
                       const uint32_t* rows, uint32_t* sel, size_t n) {
    return o.refine_cmp_f64[SimdOp<Op>::kIdx](k.v, k.lit, rows, sel, n);
  }
  static void Mask(const simd::Ops& o, const DblCmpK<Op>& k, size_t lo,
                   size_t hi, uint8_t* out) {
    o.mask_cmp_f64[SimdOp<Op>::kIdx](k.v, k.lit, lo, hi, out);
  }
};

template <>
struct Vec<DblNeK> {
  static constexpr bool kOk = true;
  static size_t Select(const simd::Ops& o, const DblNeK& k, size_t lo,
                       size_t hi, uint32_t* out) {
    return o.select_cmp_f64[simd::kNe](k.v, k.lit, lo, hi, out);
  }
  static size_t Refine(const simd::Ops& o, const DblNeK& k,
                       const uint32_t* rows, uint32_t* sel, size_t n) {
    return o.refine_cmp_f64[simd::kNe](k.v, k.lit, rows, sel, n);
  }
  static void Mask(const simd::Ops& o, const DblNeK& k, size_t lo, size_t hi,
                   uint8_t* out) {
    o.mask_cmp_f64[simd::kNe](k.v, k.lit, lo, hi, out);
  }
};

template <>
struct Vec<IntBetweenK> {
  static constexpr bool kOk = true;
  static size_t Select(const simd::Ops& o, const IntBetweenK& k, size_t lo,
                       size_t hi, uint32_t* out) {
    return o.select_between_i64(k.v, k.lo, k.span, lo, hi, out);
  }
  static size_t Refine(const simd::Ops& o, const IntBetweenK& k,
                       const uint32_t* rows, uint32_t* sel, size_t n) {
    return o.refine_between_i64(k.v, k.lo, k.span, rows, sel, n);
  }
  static void Mask(const simd::Ops& o, const IntBetweenK& k, size_t lo,
                   size_t hi, uint8_t* out) {
    o.mask_between_i64(k.v, k.lo, k.span, lo, hi, out);
  }
};

template <>
struct Vec<DblBetweenK> {
  static constexpr bool kOk = true;
  static size_t Select(const simd::Ops& o, const DblBetweenK& k, size_t lo,
                       size_t hi, uint32_t* out) {
    return o.select_between_f64(k.v, k.lo, k.hi, lo, hi, out);
  }
  static size_t Refine(const simd::Ops& o, const DblBetweenK& k,
                       const uint32_t* rows, uint32_t* sel, size_t n) {
    return o.refine_between_f64(k.v, k.lo, k.hi, rows, sel, n);
  }
  static void Mask(const simd::Ops& o, const DblBetweenK& k, size_t lo,
                   size_t hi, uint8_t* out) {
    o.mask_between_f64(k.v, k.lo, k.hi, lo, hi, out);
  }
};

template <>
struct Vec<IntInBitsetK> {
  static constexpr bool kOk = true;
  static size_t Select(const simd::Ops& o, const IntInBitsetK& k, size_t lo,
                       size_t hi, uint32_t* out) {
    return o.select_in_bitset_i64(k.v, k.base, k.span, k.bits, lo, hi, out);
  }
  static size_t Refine(const simd::Ops& o, const IntInBitsetK& k,
                       const uint32_t* rows, uint32_t* sel, size_t n) {
    return o.refine_in_bitset_i64(k.v, k.base, k.span, k.bits, rows, sel, n);
  }
  static void Mask(const simd::Ops& o, const IntInBitsetK& k, size_t lo,
                   size_t hi, uint8_t* out) {
    o.mask_in_bitset_i64(k.v, k.base, k.span, k.bits, lo, hi, out);
  }
};

// ----------------------------------------------------------- loop drivers

template <class K>
void MaskLoop(const K& k, const uint32_t* rows, size_t base, size_t n,
              uint8_t* out) {
  if (rows != nullptr) {
    for (size_t i = 0; i < n; ++i) out[i] = k.Test(rows[i]) ? 1 : 0;
    return;
  }
  if constexpr (Vec<K>::kOk) {
    if (const simd::Ops* ops = simd::ActiveOps()) {
      Vec<K>::Mask(*ops, k, base, base + n, out);
      return;
    }
  }
  for (size_t i = 0; i < n; ++i) out[i] = k.Test(base + i) ? 1 : 0;
}

template <class K>
void AndLoop(const K& k, const uint32_t* rows, size_t base, size_t n,
             uint8_t* inout) {
  if (rows != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (inout[i]) inout[i] = k.Test(rows[i]) ? 1 : 0;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (inout[i]) inout[i] = k.Test(base + i) ? 1 : 0;
    }
  }
}

template <class K>
void OrLoop(const K& k, const uint32_t* rows, size_t base, size_t n,
            uint8_t* inout) {
  if (rows != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (!inout[i]) inout[i] = k.Test(rows[i]) ? 1 : 0;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (!inout[i]) inout[i] = k.Test(base + i) ? 1 : 0;
    }
  }
}

// In-place selection refinement; branch-free compaction keeps throughput
// flat across selectivities.
template <class K>
void RefineLoop(const K& k, const uint32_t* rows,
                std::vector<uint32_t>* sel) {
  uint32_t* s = sel->data();
  const size_t n = sel->size();
  if constexpr (Vec<K>::kOk) {
    if (const simd::Ops* ops = simd::ActiveOps()) {
      sel->resize(Vec<K>::Refine(*ops, k, rows, s, n));
      return;
    }
  }
  size_t w = 0;
  if (rows != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t p = s[i];
      s[w] = p;
      w += k.Test(rows[p]) ? 1 : 0;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t p = s[i];
      s[w] = p;
      w += k.Test(p) ? 1 : 0;
    }
  }
  sel->resize(w);
}

template <class K>
void SelectLoop(const K& k, const uint32_t* rows, size_t n,
                std::vector<uint32_t>* out) {
  out->resize(n);
  uint32_t* o = out->data();
  if constexpr (Vec<K>::kOk) {
    if (const simd::Ops* ops = simd::ActiveOps()) {
      size_t vw;
      if (rows == nullptr) {
        // Positions are rows: a dense scan emits them directly.
        vw = Vec<K>::Select(*ops, k, 0, n, o);
      } else {
        // Seed the identity positions, then gather-refine through `rows`.
        std::iota(out->begin(), out->end(), 0u);
        vw = Vec<K>::Refine(*ops, k, rows, o, n);
      }
      out->resize(vw);
      return;
    }
  }
  size_t w = 0;
  if (rows != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      o[w] = static_cast<uint32_t>(i);
      w += k.Test(rows[i]) ? 1 : 0;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      o[w] = static_cast<uint32_t>(i);
      w += k.Test(i) ? 1 : 0;
    }
  }
  out->resize(w);
}

// Seeds a selection of table rows (not positions) from the range [lo, hi) —
// the morsel-local variant of SelectLoop.
template <class K>
void SelectRangeLoop(const K& k, size_t lo, size_t hi,
                     std::vector<uint32_t>* out) {
  out->resize(hi - lo);
  uint32_t* o = out->data();
  if constexpr (Vec<K>::kOk) {
    if (const simd::Ops* ops = simd::ActiveOps()) {
      out->resize(Vec<K>::Select(*ops, k, lo, hi, o));
      return;
    }
  }
  size_t w = 0;
  for (size_t r = lo; r < hi; ++r) {
    o[w] = static_cast<uint32_t>(r);
    w += k.Test(r) ? 1 : 0;
  }
  out->resize(w);
}

}  // namespace

// --------------------------------------------------------------- dispatch

template <class Fn>
void CompiledPredicate::VisitLeaf(const Leaf& L, Fn&& fn) {
  switch (L.kind) {
    case LeafKind::kIntCmp:
      switch (L.op) {
        case CompareOp::kEq: return fn(IntCmpK<OpEq>{L.i64, L.ilit});
        case CompareOp::kNe: return fn(IntCmpK<OpNe>{L.i64, L.ilit});
        case CompareOp::kLt: return fn(IntCmpK<OpLt>{L.i64, L.ilit});
        case CompareOp::kLe: return fn(IntCmpK<OpLe>{L.i64, L.ilit});
        case CompareOp::kGt: return fn(IntCmpK<OpGt>{L.i64, L.ilit});
        case CompareOp::kGe: return fn(IntCmpK<OpGe>{L.i64, L.ilit});
      }
      break;
    case LeafKind::kDblCmp:
      switch (L.op) {
        case CompareOp::kEq: return fn(DblCmpK<OpEq>{L.f64, L.dlit});
        case CompareOp::kNe: return fn(DblNeK{L.f64, L.dlit});
        case CompareOp::kLt: return fn(DblCmpK<OpLt>{L.f64, L.dlit});
        case CompareOp::kLe: return fn(DblCmpK<OpLe>{L.f64, L.dlit});
        case CompareOp::kGt: return fn(DblCmpK<OpGt>{L.f64, L.dlit});
        case CompareOp::kGe: return fn(DblCmpK<OpGe>{L.f64, L.dlit});
      }
      break;
    case LeafKind::kIntBetween:
      return fn(IntBetweenK{
          L.i64, L.ilo,
          static_cast<uint64_t>(L.ihi) - static_cast<uint64_t>(L.ilo)});
    case LeafKind::kDblBetween:
      return fn(DblBetweenK{L.f64, L.dlo, L.dhi});
    case LeafKind::kCodeTable:
      return fn(CodeTableK{L.codes, L.match_table.data()});
    case LeafKind::kIntInBitset:
      return fn(IntInBitsetK{L.i64, L.base,
                             static_cast<uint64_t>(L.bits.size()) * 64 - 1,
                             L.bits.data()});
    case LeafKind::kIntInSorted:
      return fn(IntInSortedK{L.i64, L.ivals.data(),
                             L.ivals.data() + L.ivals.size()});
    case LeafKind::kDblInSorted:
      return fn(DblInSortedK{L.f64, L.dvals.data(),
                             L.dvals.data() + L.dvals.size()});
  }
  std::abort();  // unreachable: all kinds handled above
}

template <class Fn>
bool CompiledPredicate::VisitSimple(uint32_t node, Fn&& fn) const {
  const Node& nd = nodes_[node];
  if (nd.kind == NodeKind::kLeaf) {
    VisitLeaf(leaves_[nd.leaf], fn);
    return true;
  }
  if (nd.kind == NodeKind::kNot) {
    const Node& child = nodes_[child_ids_[nd.child_begin]];
    if (child.kind == NodeKind::kLeaf) {
      VisitLeaf(leaves_[child.leaf],
                [&](auto k) { fn(NotK<decltype(k)>{k}); });
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------------- evaluation

void CompiledPredicate::EvalMaskNode(uint32_t node, const uint32_t* rows,
                                     size_t base, size_t n,
                                     uint8_t* out) const {
  const Node& nd = nodes_[node];
  if (nd.kind == NodeKind::kConst) {
    std::fill_n(out, n, nd.value ? 1 : 0);
    return;
  }
  if (VisitSimple(node, [&](auto k) { MaskLoop(k, rows, base, n, out); })) {
    return;
  }
  switch (nd.kind) {
    case NodeKind::kAnd:
      EvalMaskNode(child_ids_[nd.child_begin], rows, base, n, out);
      for (uint32_t c = 1; c < nd.child_count; ++c) {
        AndIntoNode(child_ids_[nd.child_begin + c], rows, base, n, out);
      }
      return;
    case NodeKind::kOr:
      EvalMaskNode(child_ids_[nd.child_begin], rows, base, n, out);
      for (uint32_t c = 1; c < nd.child_count; ++c) {
        OrIntoNode(child_ids_[nd.child_begin + c], rows, base, n, out);
      }
      return;
    case NodeKind::kNot:
      EvalMaskNode(child_ids_[nd.child_begin], rows, base, n, out);
      for (size_t i = 0; i < n; ++i) out[i] = out[i] ? 0 : 1;
      return;
    default:
      return;  // kConst / kLeaf handled above
  }
}

void CompiledPredicate::AndIntoNode(uint32_t node, const uint32_t* rows,
                                    size_t base, size_t n,
                                    uint8_t* inout) const {
  const Node& nd = nodes_[node];
  if (nd.kind == NodeKind::kConst) {
    if (!nd.value) std::fill_n(inout, n, 0);
    return;
  }
  if (VisitSimple(node, [&](auto k) { AndLoop(k, rows, base, n, inout); })) {
    return;
  }
  if (nd.kind == NodeKind::kAnd) {
    for (uint32_t c = 0; c < nd.child_count; ++c) {
      AndIntoNode(child_ids_[nd.child_begin + c], rows, base, n, inout);
    }
    return;
  }
  std::vector<uint8_t> scratch(n);
  EvalMaskNode(node, rows, base, n, scratch.data());
  for (size_t i = 0; i < n; ++i) inout[i] &= scratch[i];
}

void CompiledPredicate::OrIntoNode(uint32_t node, const uint32_t* rows,
                                   size_t base, size_t n,
                                   uint8_t* inout) const {
  const Node& nd = nodes_[node];
  if (nd.kind == NodeKind::kConst) {
    if (nd.value) std::fill_n(inout, n, 1);
    return;
  }
  if (VisitSimple(node, [&](auto k) { OrLoop(k, rows, base, n, inout); })) {
    return;
  }
  if (nd.kind == NodeKind::kOr) {
    for (uint32_t c = 0; c < nd.child_count; ++c) {
      OrIntoNode(child_ids_[nd.child_begin + c], rows, base, n, inout);
    }
    return;
  }
  std::vector<uint8_t> scratch(n);
  EvalMaskNode(node, rows, base, n, scratch.data());
  for (size_t i = 0; i < n; ++i) inout[i] |= scratch[i];
}

void CompiledPredicate::RefineNode(uint32_t node, const uint32_t* rows,
                                   std::vector<uint32_t>* sel) const {
  const Node& nd = nodes_[node];
  if (nd.kind == NodeKind::kConst) {
    if (!nd.value) sel->clear();
    return;
  }
  if (VisitSimple(node, [&](auto k) { RefineLoop(k, rows, sel); })) return;
  if (nd.kind == NodeKind::kAnd) {
    for (uint32_t c = 0; c < nd.child_count; ++c) {
      RefineNode(child_ids_[nd.child_begin + c], rows, sel);
    }
    return;
  }
  // OR / NOT subtree: mask evaluation over the surviving candidates only.
  const size_t m = sel->size();
  if (m == 0) return;
  std::vector<uint32_t> gathered;
  const uint32_t* eval_rows;
  if (rows == nullptr) {
    eval_rows = sel->data();  // positions already are table rows
  } else {
    gathered.resize(m);
    for (size_t i = 0; i < m; ++i) gathered[i] = rows[(*sel)[i]];
    eval_rows = gathered.data();
  }
  std::vector<uint8_t> mask(m);
  EvalMaskNode(node, eval_rows, 0, m, mask.data());
  uint32_t* s = sel->data();
  size_t w = 0;
  for (size_t i = 0; i < m; ++i) {
    s[w] = s[i];
    w += mask[i];
  }
  sel->resize(w);
}

void CompiledPredicate::SeedSelect(uint32_t node, const uint32_t* rows,
                                   size_t n,
                                   std::vector<uint32_t>* out) const {
  const Node& nd = nodes_[node];
  if (nd.kind == NodeKind::kConst) {
    out->clear();
    if (nd.value) {
      out->resize(n);
      std::iota(out->begin(), out->end(), 0u);
    }
    return;
  }
  if (VisitSimple(node, [&](auto k) { SelectLoop(k, rows, n, out); })) return;
  if (nd.kind == NodeKind::kAnd) {
    SeedSelect(child_ids_[nd.child_begin], rows, n, out);
    for (uint32_t c = 1; c < nd.child_count; ++c) {
      RefineNode(child_ids_[nd.child_begin + c], rows, out);
    }
    return;
  }
  // OR / NOT root: one mask pass over all candidates, then compact.
  std::vector<uint8_t> mask(n);
  EvalMaskNode(node, rows, 0, n, mask.data());
  out->resize(n);
  uint32_t* o = out->data();
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    o[w] = static_cast<uint32_t>(i);
    w += mask[i];
  }
  out->resize(w);
}

void CompiledPredicate::SeedSelectRange(uint32_t node, size_t lo, size_t hi,
                                        std::vector<uint32_t>* out) const {
  const Node& nd = nodes_[node];
  if (nd.kind == NodeKind::kConst) {
    out->clear();
    if (nd.value) {
      out->resize(hi - lo);
      std::iota(out->begin(), out->end(), static_cast<uint32_t>(lo));
    }
    return;
  }
  if (VisitSimple(node, [&](auto k) { SelectRangeLoop(k, lo, hi, out); })) {
    return;
  }
  if (nd.kind == NodeKind::kAnd) {
    SeedSelectRange(child_ids_[nd.child_begin], lo, hi, out);
    for (uint32_t c = 1; c < nd.child_count; ++c) {
      // The seeded selection holds table rows, which is exactly what
      // RefineNode consumes with a null row mapping.
      RefineNode(child_ids_[nd.child_begin + c], nullptr, out);
    }
    return;
  }
  // OR / NOT root: seed every row of the range, refine by mask.
  out->resize(hi - lo);
  std::iota(out->begin(), out->end(), static_cast<uint32_t>(lo));
  RefineNode(node, nullptr, out);
}

bool CompiledPredicate::TestNode(uint32_t node, size_t row) const {
  const Node& nd = nodes_[node];
  switch (nd.kind) {
    case NodeKind::kConst:
      return nd.value;
    case NodeKind::kLeaf: {
      bool r = false;
      VisitLeaf(leaves_[nd.leaf], [&](auto k) { r = k.Test(row); });
      return r;
    }
    case NodeKind::kAnd:
      for (uint32_t c = 0; c < nd.child_count; ++c) {
        if (!TestNode(child_ids_[nd.child_begin + c], row)) return false;
      }
      return true;
    case NodeKind::kOr:
      for (uint32_t c = 0; c < nd.child_count; ++c) {
        if (TestNode(child_ids_[nd.child_begin + c], row)) return true;
      }
      return false;
    case NodeKind::kNot:
      return !TestNode(child_ids_[nd.child_begin], row);
  }
  return false;
}

// -------------------------------------------------- zone-map classification
//
// Three-valued evaluation of the plan tree against per-chunk zone maps.
// Soundness contract (what keeps chunk skipping bit-identical to the flat
// scan): kSkip is returned only when the zone range proves NO row of the
// chunk can match, kTakeAll only when it proves EVERY row matches. NaN is
// the one subtlety — a NaN value matches no Compare/BETWEEN/IN leaf, so
// for double leaves kSkip stays valid whatever nan_count is, while
// kTakeAll additionally requires nan_count == 0 (and an all-NaN chunk is
// always kSkip, since its min/max summarize zero values).

namespace {

ChunkVerdict InvertVerdict(ChunkVerdict v) {
  // Exact because the verdicts are exact row-set statements: "no row
  // matches P" == "every row matches NOT P" and vice versa.
  if (v == ChunkVerdict::kSkip) return ChunkVerdict::kTakeAll;
  if (v == ChunkVerdict::kTakeAll) return ChunkVerdict::kSkip;
  return ChunkVerdict::kResidual;
}

template <typename T>
ChunkVerdict ClassifyCmpZone(CompareOp op, T zmin, T zmax, T lit,
                             bool exact_all) {
  // exact_all gates kTakeAll (false when the chunk holds NaNs, which never
  // match); kSkip implications hold regardless.
  switch (op) {
    case CompareOp::kEq:
      if (lit < zmin || lit > zmax) return ChunkVerdict::kSkip;
      if (exact_all && zmin == zmax && zmin == lit)
        return ChunkVerdict::kTakeAll;
      break;
    case CompareOp::kNe:
      if (zmin == zmax && zmin == lit) return ChunkVerdict::kSkip;
      if (exact_all && (lit < zmin || lit > zmax))
        return ChunkVerdict::kTakeAll;
      break;
    case CompareOp::kLt:
      if (zmin >= lit) return ChunkVerdict::kSkip;
      if (exact_all && zmax < lit) return ChunkVerdict::kTakeAll;
      break;
    case CompareOp::kLe:
      if (zmin > lit) return ChunkVerdict::kSkip;
      if (exact_all && zmax <= lit) return ChunkVerdict::kTakeAll;
      break;
    case CompareOp::kGt:
      if (zmax <= lit) return ChunkVerdict::kSkip;
      if (exact_all && zmin > lit) return ChunkVerdict::kTakeAll;
      break;
    case CompareOp::kGe:
      if (zmax < lit) return ChunkVerdict::kSkip;
      if (exact_all && zmin >= lit) return ChunkVerdict::kTakeAll;
      break;
  }
  return ChunkVerdict::kResidual;
}

// Sorted-literal IN list vs a zone range: kSkip when no literal lies in
// [zmin, zmax]; kTakeAll when the chunk is single-valued on a literal.
template <typename T>
ChunkVerdict ClassifyInZone(const std::vector<T>& sorted_vals, T zmin, T zmax,
                            bool exact_all) {
  auto it = std::lower_bound(sorted_vals.begin(), sorted_vals.end(), zmin);
  if (it == sorted_vals.end() || *it > zmax) return ChunkVerdict::kSkip;
  if (exact_all && zmin == zmax) return ChunkVerdict::kTakeAll;  // *it==zmin
  return ChunkVerdict::kResidual;
}

// Dictionary-range scans longer than this stay kResidual: classification
// must cost far less than the chunk scan it replaces.
constexpr size_t kMaxCodeRangeScan = 4096;

}  // namespace

ChunkVerdict CompiledPredicate::ClassifyLeafZone(const Leaf& L,
                                                 const ZoneMap& z) {
  switch (L.kind) {
    case LeafKind::kIntCmp:
      return ClassifyCmpZone<int64_t>(L.op, z.imin, z.imax, L.ilit, true);
    case LeafKind::kDblCmp: {
      if (z.nan_count == z.rows) return ChunkVerdict::kSkip;
      return ClassifyCmpZone<double>(L.op, z.dmin, z.dmax, L.dlit,
                                     z.nan_count == 0);
    }
    case LeafKind::kIntBetween:
      if (z.imax < L.ilo || z.imin > L.ihi) return ChunkVerdict::kSkip;
      if (z.imin >= L.ilo && z.imax <= L.ihi) return ChunkVerdict::kTakeAll;
      return ChunkVerdict::kResidual;
    case LeafKind::kDblBetween:
      if (z.nan_count == z.rows) return ChunkVerdict::kSkip;
      if (z.dmax < L.dlo || z.dmin > L.dhi) return ChunkVerdict::kSkip;
      if (z.nan_count == 0 && z.dmin >= L.dlo && z.dmax <= L.dhi) {
        return ChunkVerdict::kTakeAll;
      }
      return ChunkVerdict::kResidual;
    case LeafKind::kCodeTable: {
      if (z.cmin < 0 ||
          static_cast<size_t>(z.cmax) >= L.match_table.size() ||
          static_cast<size_t>(z.cmax - z.cmin) > kMaxCodeRangeScan) {
        return ChunkVerdict::kResidual;
      }
      bool any = false, all = true;
      for (int32_t c = z.cmin; c <= z.cmax; ++c) {
        if (L.match_table[static_cast<size_t>(c)] != 0) {
          any = true;
        } else {
          all = false;
        }
      }
      if (!any) return ChunkVerdict::kSkip;
      if (all) return ChunkVerdict::kTakeAll;
      return ChunkVerdict::kResidual;
    }
    case LeafKind::kIntInBitset:
    case LeafKind::kIntInSorted:
      return ClassifyInZone<int64_t>(L.ivals, z.imin, z.imax, true);
    case LeafKind::kDblInSorted:
      if (z.nan_count == z.rows) return ChunkVerdict::kSkip;
      return ClassifyInZone<double>(L.dvals, z.dmin, z.dmax,
                                    z.nan_count == 0);
  }
  return ChunkVerdict::kResidual;
}

ChunkVerdict CompiledPredicate::ClassifyNode(uint32_t node,
                                             const ZoneOfColumn& zones) const {
  const Node& nd = nodes_[node];
  switch (nd.kind) {
    case NodeKind::kConst:
      return nd.value ? ChunkVerdict::kTakeAll : ChunkVerdict::kSkip;
    case NodeKind::kLeaf: {
      const Leaf& L = leaves_[nd.leaf];
      return ClassifyLeafZone(L, zones(L.col));
    }
    case NodeKind::kAnd: {
      ChunkVerdict v = ChunkVerdict::kTakeAll;
      for (uint32_t c = 0; c < nd.child_count; ++c) {
        const ChunkVerdict cv =
            ClassifyNode(child_ids_[nd.child_begin + c], zones);
        if (cv == ChunkVerdict::kSkip) return ChunkVerdict::kSkip;
        if (cv == ChunkVerdict::kResidual) v = ChunkVerdict::kResidual;
      }
      return v;
    }
    case NodeKind::kOr: {
      ChunkVerdict v = ChunkVerdict::kSkip;
      for (uint32_t c = 0; c < nd.child_count; ++c) {
        const ChunkVerdict cv =
            ClassifyNode(child_ids_[nd.child_begin + c], zones);
        if (cv == ChunkVerdict::kTakeAll) return ChunkVerdict::kTakeAll;
        if (cv == ChunkVerdict::kResidual) v = ChunkVerdict::kResidual;
      }
      return v;
    }
    case NodeKind::kNot:
      return InvertVerdict(ClassifyNode(child_ids_[nd.child_begin], zones));
  }
  return ChunkVerdict::kResidual;
}

ChunkVerdict CompiledPredicate::ClassifyZones(
    const ZoneOfColumn& zone_of_col) const {
  return ClassifyNode(root_, zone_of_col);
}

ChunkVerdict CompiledPredicate::ClassifyChunk(size_t chunk) const {
  if (zones_ == nullptr || chunk >= zones_->num_chunks) {
    return ChunkVerdict::kResidual;
  }
  return ClassifyNode(root_, [&](uint32_t col) -> const ZoneMap& {
    return zones_->zone(col, chunk);
  });
}

size_t CompiledPredicate::zone_chunk_rows() const {
  if (zones_ == nullptr || zones_->num_chunks == 0 ||
      !ZoneMapPruningEnabled()) {
    return 0;
  }
  return zones_->chunk_rows;
}

// ------------------------------------------------------------- public API

std::vector<uint32_t> CompiledPredicate::Select() const {
  if (zone_chunk_rows() != 0) return SelectRange(0, n_);
  return SelectPositions(nullptr, n_);
}

std::vector<uint32_t> CompiledPredicate::SelectRange(size_t lo,
                                                     size_t hi) const {
  std::vector<uint32_t> out;
  const size_t cr = zone_chunk_rows();
  if (cr == 0 || lo >= hi) {
    SeedSelectRange(root_, lo, hi, &out);
    return out;
  }
  // Chunk-at-a-time drive: a verdict for a chunk covers any subrange of it
  // (all-rows / no-rows statements restrict), so morsel boundaries that
  // split a chunk still classify correctly.
  std::vector<uint32_t> part;
  for (size_t k = lo / cr; k * cr < hi; ++k) {
    const size_t clo = std::max(lo, k * cr);
    const size_t chi = std::min(hi, (k + 1) * cr);
    const ChunkVerdict v = ClassifyChunk(k);
    CountVerdict(v);
    if (v == ChunkVerdict::kSkip) continue;
    if (v == ChunkVerdict::kTakeAll) {
      const size_t w = out.size();
      out.resize(w + (chi - clo));
      std::iota(out.begin() + w, out.end(), static_cast<uint32_t>(clo));
      continue;
    }
    SeedSelectRange(root_, clo, chi, &part);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

void CompiledPredicate::EvalMaskRange(size_t lo, size_t hi,
                                      uint8_t* out) const {
  const size_t cr = zone_chunk_rows();
  if (cr == 0 || lo >= hi) {
    EvalMaskNode(root_, nullptr, lo, hi - lo, out);
    return;
  }
  for (size_t k = lo / cr; k * cr < hi; ++k) {
    const size_t clo = std::max(lo, k * cr);
    const size_t chi = std::min(hi, (k + 1) * cr);
    const ChunkVerdict v = ClassifyChunk(k);
    CountVerdict(v);
    if (v == ChunkVerdict::kSkip) {
      std::memset(out + (clo - lo), 0, chi - clo);
    } else if (v == ChunkVerdict::kTakeAll) {
      std::memset(out + (clo - lo), 1, chi - clo);
    } else {
      EvalMaskNode(root_, nullptr, clo, chi - clo, out + (clo - lo));
    }
  }
}

std::vector<uint32_t> CompiledPredicate::SelectPositions(
    const uint32_t* base_rows, size_t n) const {
  std::vector<uint32_t> out;
  SeedSelect(root_, base_rows, n, &out);
  return out;
}

void CompiledPredicate::Refine(const uint32_t* base_rows,
                               std::vector<uint32_t>* sel) const {
  RefineNode(root_, base_rows, sel);
}

void CompiledPredicate::EvalMask(const uint32_t* base_rows, size_t n,
                                 uint8_t* out) const {
  EvalMaskNode(root_, base_rows, 0, n, out);
}

bool CompiledPredicate::MatchesRow(size_t row) const {
  return TestNode(root_, row);
}

// ------------------------------------------------------------ compilation

uint32_t CompiledPredicate::AddConst(bool value) {
  Node nd;
  nd.kind = NodeKind::kConst;
  nd.value = value;
  nodes_.push_back(nd);
  return static_cast<uint32_t>(nodes_.size() - 1);
}

uint32_t CompiledPredicate::AddLeaf(Leaf leaf) {
  leaves_.push_back(std::move(leaf));
  Node nd;
  nd.kind = NodeKind::kLeaf;
  nd.leaf = static_cast<uint32_t>(leaves_.size() - 1);
  nodes_.push_back(nd);
  return static_cast<uint32_t>(nodes_.size() - 1);
}

uint32_t CompiledPredicate::AddBoolNode(NodeKind kind, uint32_t a,
                                        uint32_t b) {
  auto is_const = [&](uint32_t id, bool v) {
    return nodes_[id].kind == NodeKind::kConst && nodes_[id].value == v;
  };
  if (kind == NodeKind::kAnd) {
    if (is_const(a, false) || is_const(b, false)) return AddConst(false);
    if (is_const(a, true)) return b;
    if (is_const(b, true)) return a;
  } else {
    if (is_const(a, true) || is_const(b, true)) return AddConst(true);
    if (is_const(a, false)) return b;
    if (is_const(b, false)) return a;
  }
  // Flatten same-kind children into one n-ary node so an AND chain refines
  // one shared selection and an OR chain folds into one mask.
  std::vector<uint32_t> kids;
  for (uint32_t id : {a, b}) {
    const Node& nd = nodes_[id];
    if (nd.kind == kind) {
      for (uint32_t c = 0; c < nd.child_count; ++c) {
        kids.push_back(child_ids_[nd.child_begin + c]);
      }
    } else {
      kids.push_back(id);
    }
  }
  Node nd;
  nd.kind = kind;
  nd.child_begin = static_cast<uint32_t>(child_ids_.size());
  nd.child_count = static_cast<uint32_t>(kids.size());
  child_ids_.insert(child_ids_.end(), kids.begin(), kids.end());
  nodes_.push_back(nd);
  return static_cast<uint32_t>(nodes_.size() - 1);
}

uint32_t CompiledPredicate::AddNotNode(uint32_t child) {
  const Node& cn = nodes_[child];
  if (cn.kind == NodeKind::kConst) return AddConst(!cn.value);
  if (cn.kind == NodeKind::kNot) return child_ids_[cn.child_begin];
  Node nd;
  nd.kind = NodeKind::kNot;
  nd.child_begin = static_cast<uint32_t>(child_ids_.size());
  nd.child_count = 1;
  child_ids_.push_back(child);
  nodes_.push_back(nd);
  return static_cast<uint32_t>(nodes_.size() - 1);
}

Result<uint32_t> CompiledPredicate::CompileCompare(const Table& table,
                                                   const Predicate& pred) {
  CVOPT_ASSIGN_OR_RETURN(size_t cidx, table.ColumnIndex(pred.column_));
  cols_.push_back(static_cast<uint32_t>(cidx));
  const Column* col = &table.column(cidx);
  if (col->type() == DataType::kString) {
    if (!pred.literal_.is_string()) {
      return Status::InvalidArgument("string column '" + pred.column_ +
                                     "' compared to non-string literal");
    }
    // Pre-resolve to a per-dictionary-code match table; evaluation is one
    // byte lookup per row for every operator, ordered compares included.
    const auto& dict = col->dictionary();
    Leaf L;
    L.kind = LeafKind::kCodeTable;
    L.col = static_cast<uint32_t>(cidx);
    L.codes = col->codes().data();
    L.match_table.resize(dict.size());
    if (pred.op_ == CompareOp::kEq || pred.op_ == CompareOp::kNe) {
      const int32_t code = col->LookupCode(pred.literal_.AsString());
      const bool want_eq = pred.op_ == CompareOp::kEq;
      for (size_t c = 0; c < dict.size(); ++c) {
        L.match_table[c] =
            ((static_cast<int32_t>(c) == code) == want_eq) ? 1 : 0;
      }
    } else {
      const std::string& lit = pred.literal_.AsString();
      for (size_t c = 0; c < dict.size(); ++c) {
        L.match_table[c] = ApplyCompare(pred.op_, dict[c], lit) ? 1 : 0;
      }
    }
    if (L.match_table.empty()) return AddConst(false);  // empty dictionary
    return AddLeaf(std::move(L));
  }
  if (pred.literal_.is_string()) {
    return Status::InvalidArgument("numeric column '" + pred.column_ +
                                   "' compared to string literal");
  }
  if (col->type() == DataType::kInt64) {
    const Int64ComparePlan plan = PlanInt64Compare(pred.op_, pred.literal_);
    switch (plan.kind) {
      case Int64ComparePlan::Kind::kConstFalse:
        return AddConst(false);
      case Int64ComparePlan::Kind::kConstTrue:
        return AddConst(true);
      case Int64ComparePlan::Kind::kCompare:
        break;
    }
    Leaf L;
    L.kind = LeafKind::kIntCmp;
    L.col = static_cast<uint32_t>(cidx);
    L.i64 = col->ints().data();
    L.op = plan.op;
    L.ilit = plan.lit;
    return AddLeaf(std::move(L));
  }
  const double d = pred.literal_.AsDouble();
  if (std::isnan(d)) return AddConst(false);  // NaN literal matches nothing
  Leaf L;
  L.kind = LeafKind::kDblCmp;
  L.col = static_cast<uint32_t>(cidx);
  L.f64 = col->doubles().data();
  L.op = pred.op_;
  L.dlit = d;
  return AddLeaf(std::move(L));
}

Result<uint32_t> CompiledPredicate::CompileBetween(const Table& table,
                                                   const Predicate& pred) {
  CVOPT_ASSIGN_OR_RETURN(size_t cidx, table.ColumnIndex(pred.column_));
  cols_.push_back(static_cast<uint32_t>(cidx));
  const Column* col = &table.column(cidx);
  if (col->type() == DataType::kString) {
    return Status::InvalidArgument("BETWEEN is not supported on strings");
  }
  if (pred.literal_.is_string() || pred.hi_.is_string()) {
    return Status::InvalidArgument("BETWEEN bounds must be numeric");
  }
  const double lo = pred.literal_.AsDouble(), hi = pred.hi_.AsDouble();
  if (col->type() == DataType::kInt64) {
    const Int64RangePlan plan = PlanInt64Range(lo, hi);
    if (plan.empty) return AddConst(false);
    Leaf L;
    L.kind = LeafKind::kIntBetween;
    L.col = static_cast<uint32_t>(cidx);
    L.i64 = col->ints().data();
    L.ilo = plan.lo;
    L.ihi = plan.hi;
    return AddLeaf(std::move(L));
  }
  if (std::isnan(lo) || std::isnan(hi) || lo > hi) return AddConst(false);
  Leaf L;
  L.kind = LeafKind::kDblBetween;
  L.col = static_cast<uint32_t>(cidx);
  L.f64 = col->doubles().data();
  L.dlo = lo;
  L.dhi = hi;
  return AddLeaf(std::move(L));
}

Result<uint32_t> CompiledPredicate::CompileIn(const Table& table,
                                              const Predicate& pred) {
  CVOPT_ASSIGN_OR_RETURN(size_t cidx, table.ColumnIndex(pred.column_));
  cols_.push_back(static_cast<uint32_t>(cidx));
  const Column* col = &table.column(cidx);
  if (col->type() == DataType::kString) {
    Leaf L;
    L.kind = LeafKind::kCodeTable;
    L.col = static_cast<uint32_t>(cidx);
    L.codes = col->codes().data();
    L.match_table.resize(col->dictionary().size());
    for (const auto& v : pred.values_) {
      if (!v.is_string()) {
        return Status::InvalidArgument("IN list type mismatch on " +
                                       pred.column_);
      }
      const int32_t c = col->LookupCode(v.AsString());
      if (c >= 0) L.match_table[c] = 1;
    }
    if (L.match_table.empty()) return AddConst(false);
    return AddLeaf(std::move(L));
  }
  if (col->type() == DataType::kInt64) {
    std::vector<int64_t> vals;
    for (const auto& v : pred.values_) {
      if (v.is_string()) {
        return Status::InvalidArgument("IN list type mismatch on " +
                                       pred.column_);
      }
      int64_t iv;
      if (TryInt64FromValue(v, &iv)) vals.push_back(iv);
    }
    std::sort(vals.begin(), vals.end());
    vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
    if (vals.empty()) return AddConst(false);
    const uint64_t span = static_cast<uint64_t>(vals.back()) -
                          static_cast<uint64_t>(vals.front());
    if (span <= 65535) {
      Leaf L;
      L.kind = LeafKind::kIntInBitset;
      L.col = static_cast<uint32_t>(cidx);
      L.i64 = col->ints().data();
      L.base = vals.front();
      L.bits.assign((span >> 6) + 1, 0);
      for (int64_t v : vals) {
        const uint64_t d =
            static_cast<uint64_t>(v) - static_cast<uint64_t>(L.base);
        L.bits[d >> 6] |= uint64_t{1} << (d & 63);
      }
      // Keep the sorted literals too: zone classification binary-searches
      // them instead of walking the bitset.
      L.ivals = std::move(vals);
      return AddLeaf(std::move(L));
    }
    Leaf L;
    L.kind = LeafKind::kIntInSorted;
    L.col = static_cast<uint32_t>(cidx);
    L.i64 = col->ints().data();
    L.ivals = std::move(vals);
    return AddLeaf(std::move(L));
  }
  std::vector<double> vals;
  for (const auto& v : pred.values_) {
    if (v.is_string()) {
      return Status::InvalidArgument("IN list type mismatch on " +
                                     pred.column_);
    }
    const double d = v.AsDouble();
    if (std::isnan(d)) continue;  // NaN matches nothing; also keeps the
                                  // sort a strict weak ordering
    vals.push_back(d);
  }
  std::sort(vals.begin(), vals.end());
  vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  if (vals.empty()) return AddConst(false);
  Leaf L;
  L.kind = LeafKind::kDblInSorted;
  L.col = static_cast<uint32_t>(cidx);
  L.f64 = col->doubles().data();
  L.dvals = std::move(vals);
  return AddLeaf(std::move(L));
}

Result<uint32_t> CompiledPredicate::CompileNode(const Table& table,
                                                const Predicate& pred) {
  switch (pred.kind_) {
    case Predicate::Kind::kTrue:
      return AddConst(true);
    case Predicate::Kind::kCompare:
      return CompileCompare(table, pred);
    case Predicate::Kind::kBetween:
      return CompileBetween(table, pred);
    case Predicate::Kind::kIn:
      return CompileIn(table, pred);
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      // Both children compile (and validate) before folding, matching the
      // old evaluator's error behavior.
      CVOPT_ASSIGN_OR_RETURN(uint32_t a, CompileNode(table, *pred.left_));
      CVOPT_ASSIGN_OR_RETURN(uint32_t b, CompileNode(table, *pred.right_));
      return AddBoolNode(pred.kind_ == Predicate::Kind::kAnd
                             ? NodeKind::kAnd
                             : NodeKind::kOr,
                         a, b);
    }
    case Predicate::Kind::kNot: {
      CVOPT_ASSIGN_OR_RETURN(uint32_t a, CompileNode(table, *pred.left_));
      return AddNotNode(a);
    }
  }
  return Status::Internal("unknown predicate kind");
}

Result<CompiledPredicate> CompiledPredicate::Compile(const Table& table,
                                                     const Predicate& pred) {
  CompiledPredicate cp;
  cp.n_ = table.num_rows();
  cp.zones_ = table.zone_index();
  CVOPT_ASSIGN_OR_RETURN(cp.root_, cp.CompileNode(table, pred));
  std::sort(cp.cols_.begin(), cp.cols_.end());
  cp.cols_.erase(std::unique(cp.cols_.begin(), cp.cols_.end()),
                 cp.cols_.end());
  return cp;
}

Result<CompiledPredicate> CompiledPredicate::Compile(const Table& table,
                                                     const PredicatePtr& pred) {
  if (pred == nullptr) {
    CompiledPredicate cp;
    cp.n_ = table.num_rows();
    cp.zones_ = table.zone_index();
    cp.root_ = cp.AddConst(true);
    return cp;
  }
  return Compile(table, *pred);
}

}  // namespace cvopt
