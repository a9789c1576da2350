// Shared parallel-execution subsystem: a lazily-initialized global thread
// pool plus a ParallelFor / morsel scheduler with static chunking. Every
// multi-threaded loop in the engine — predicate selection, GroupIndex
// builds, exact/approx aggregation, group-statistics collection, the
// samplers' per-stratum loops — runs through this scheduler, so one knob
// (ExecOptions / CVOPT_THREADS) governs the whole pipeline.
//
// Determinism contract: chunk boundaries depend only on (n, chunk count),
// every chunk writes its own slot, and callers merge partial results in
// chunk order. Integer results are therefore bit-identical to serial for
// any thread count; floating-point accumulations differ from serial only by
// summation reassociation (the documented float-summation tolerance). With
// a resolved thread count of 1 the loop body runs inline on the calling
// thread over the full range — the exact serial path, no pool involvement.
//
// Governance: morsel boundaries double as the engine's cancellation /
// deadline checkpoints. Workers re-install the submitting thread's
// QueryContext (see query_context.h) per task, check it before each morsel,
// and a morsel that throws — a governance abort or any task failure —
// poisons its batch via a shared early-exit flag: sibling morsels still
// check out (no deadlock) but skip their bodies, and the first exception is
// rethrown on the submitting thread once the batch has drained.
#ifndef CVOPT_EXEC_PARALLEL_H_
#define CVOPT_EXEC_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace cvopt {

class CompiledPredicate;

/// Execution configuration for the parallel scheduler.
struct ExecOptions {
  /// Worker count used by ParallelFor. 0 resolves to the CVOPT_THREADS
  /// environment variable if set, else std::thread::hardware_concurrency().
  /// 1 disables parallelism entirely (exact serial path).
  int num_threads = 0;

  /// Minimum rows per morsel: ranges shorter than two morsels run serially,
  /// so small inputs never pay thread hand-off latency.
  size_t morsel_min_rows = 8192;
};

/// Process-wide options; thread-safe to read and write.
ExecOptions GetExecOptions();
void SetExecOptions(const ExecOptions& options);

/// The thread count ParallelFor would use for an override of `num_threads`
/// (0 = the ExecOptions / CVOPT_THREADS / hardware default).
size_t ResolveThreads(int num_threads = 0);

/// Number of static chunks ParallelFor splits [0, n) into for the given
/// resolved thread count and morsel grain (0 = ExecOptions default).
size_t ParallelChunkCount(size_t n, size_t threads, size_t min_chunk = 0);

/// Boundaries of chunk `c` of `chunks` over [0, n): [ChunkBegin(n, chunks, c),
/// ChunkBegin(n, chunks, c + 1)). Depends only on the arguments, so callers
/// can re-chunk a later pass identically to an earlier one.
inline size_t ChunkBegin(size_t n, size_t chunks, size_t c) {
  return n / chunks * c + std::min(c, n % chunks);
}

/// Runs fn(chunk, lo, hi) over static contiguous chunks of [0, n), using the
/// global pool when more than one chunk is scheduled. Returns the number of
/// chunks executed (callers size per-chunk partial buffers with
/// ParallelChunkCount beforehand, or merge by this return value). With one
/// chunk, fn(0, 0, n) runs inline on the calling thread. Nested calls from
/// inside a pool worker always run inline serially.
/// `num_threads` overrides the resolved thread count (0 = default);
/// `min_chunk` overrides the morsel grain (0 = ExecOptions default).
size_t ParallelFor(size_t n,
                   const std::function<void(size_t chunk, size_t lo, size_t hi)>& fn,
                   int num_threads = 0, size_t min_chunk = 0);

/// Chunk count for partition-then-merge aggregation of `positions` rows
/// into `groups` per-group accumulators: merging costs chunks * groups
/// adds, so the fan-out is capped where per-group accumulator traffic would
/// rival the row scan itself. Huge-group-count aggregations degrade
/// gracefully to one chunk (the GroupIndex build feeding them still
/// parallelizes).
size_t AggregationChunks(size_t positions, size_t groups);

/// Runs fn(chunk, lo, hi) over exactly `chunks` static chunks of [0, n) —
/// for multi-pass algorithms that must re-chunk a later pass identically to
/// an earlier one (e.g. the GroupIndex build's local pass and id-rewrite
/// pass), and for thread-count-independent chunkings (fixed chunk counts
/// whose merged result must be bit-identical for every CVOPT_THREADS, e.g.
/// the group-statistics pass feeding sampler allocations). The chunk count
/// may exceed the resolved thread count: pool workers are capped at
/// min(chunks, threads) - 1 and claim chunk tasks dynamically. chunks == 1,
/// one resolved thread, or a nested call runs every chunk inline on the
/// calling thread — same outputs, since chunk results depend only on chunk
/// boundaries. `num_threads` overrides the resolved worker count (0 = the
/// ExecOptions / CVOPT_THREADS / hardware default).
void ParallelForChunks(size_t n, size_t chunks,
                       const std::function<void(size_t chunk, size_t lo, size_t hi)>& fn,
                       int num_threads = 0);

/// True when called from a morsel body whose batch has been poisoned: a
/// sibling morsel failed (or governance aborted the query) and the pool has
/// published its early-exit flag. No morsel of the batch starts after that
/// point; a long-running body may poll this to stop early. False outside a
/// pooled batch (inline runs stop at the first failure by themselves).
bool MorselBatchFailed();

/// Partition-then-merge accumulation into per-group slabs, the shared
/// shape of the executors' SUM/AVG/VAR passes: runs acc(s1, s2, lo, hi)
/// over chunk-order ranges of [0, m), where s1/s2 are zeroed slabs of
/// `groups` doubles (s2 is null when S2 is null), then adds the per-chunk
/// slabs into S1/S2 in chunk order — the documented float-summation
/// reassociation. One chunk invokes acc(S1, S2, 0, m) directly: the exact
/// serial loop, no partials.
template <class Acc>
void AccumulateChunked(size_t m, size_t chunks, size_t groups, double* S1,
                       double* S2, Acc&& acc) {
  if (chunks <= 1) {
    acc(S1, S2, size_t{0}, m);
    return;
  }
  std::vector<double> p1(chunks * groups, 0.0);
  std::vector<double> p2(S2 != nullptr ? chunks * groups : 0, 0.0);
  ParallelForChunks(m, chunks, [&](size_t c, size_t lo, size_t hi) {
    acc(p1.data() + c * groups,
        S2 != nullptr ? p2.data() + c * groups : nullptr, lo, hi);
  });
  for (size_t c = 0; c < chunks; ++c) {
    for (size_t g = 0; g < groups; ++g) S1[g] += p1[c * groups + g];
    if (S2 != nullptr) {
      for (size_t g = 0; g < groups; ++g) S2[g] += p2[c * groups + g];
    }
  }
}

/// Partition-then-concatenate collection into per-group value buffers, the
/// shared shape of the executors' MEDIAN passes: runs fill(groups_array,
/// lo, hi) over chunk-order ranges of [0, m), where groups_array points at
/// `groups` empty vectors, then concatenates the per-chunk buffers in
/// chunk order — so the merged per-group sequences equal the serial ones
/// element for element. One chunk fills *bufs directly.
template <class T, class Fill>
void CollectChunked(size_t m, size_t chunks, size_t groups,
                    std::vector<std::vector<T>>* bufs, Fill&& fill) {
  bufs->resize(groups);
  if (chunks <= 1) {
    fill(bufs->data(), size_t{0}, m);
    return;
  }
  std::vector<std::vector<std::vector<T>>> part(chunks);
  ParallelForChunks(m, chunks, [&](size_t c, size_t lo, size_t hi) {
    part[c].resize(groups);
    fill(part[c].data(), lo, hi);
  });
  for (size_t c = 0; c < chunks; ++c) {
    for (size_t g = 0; g < groups; ++g) {
      (*bufs)[g].insert((*bufs)[g].end(), part[c][g].begin(),
                        part[c][g].end());
    }
  }
}

/// Parallel CompiledPredicate evaluation: per-morsel selection vectors,
/// concatenated in row order — identical output to cp.Select() for every
/// thread count.
std::vector<uint32_t> ParallelSelect(const CompiledPredicate& cp,
                                     int num_threads = 0);

/// Parallel byte-mask evaluation over positions [0, n): out[p] = 1 iff the
/// row at position p (base_rows[p], or p itself when base_rows is null)
/// matches. Chunks write disjoint output ranges — identical to
/// cp.EvalMask() for every thread count.
void ParallelEvalMask(const CompiledPredicate& cp, const uint32_t* base_rows,
                      size_t n, uint8_t* out, int num_threads = 0);

}  // namespace cvopt

#endif  // CVOPT_EXEC_PARALLEL_H_
