#include "src/exec/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "src/exec/query_context.h"
#include "src/expr/compiled_predicate.h"
#include "src/util/env.h"

namespace cvopt {

namespace {

// Workers above this count stop paying off on any realistic machine and
// oversubscription tests need not spawn unbounded threads.
constexpr size_t kMaxThreads = 256;

std::mutex g_options_mutex;
ExecOptions g_options;

// True on pool worker threads: nested ParallelFor calls run inline serially
// instead of deadlocking on (or re-entering) the pool.
thread_local bool tls_in_pool_worker = false;

// Early-exit flag of the batch this thread is draining (MorselBatchFailed).
thread_local const std::atomic<bool>* tls_batch_failed = nullptr;

size_t EnvOrHardwareThreads() {
  static const size_t resolved = [] {
    if (const auto v = ParseEnvInt("CVOPT_THREADS"); v && *v > 0) {
      return static_cast<size_t>(*v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? size_t{1} : static_cast<size_t>(hw);
  }();
  return resolved;
}

// Lazily-initialized global pool. Workers are spawned on demand up to the
// largest thread count any ParallelFor has requested (minus the calling
// thread, which always participates) and park on a condition variable
// between batches. One batch runs at a time; concurrent top-level callers
// serialize on run_mutex_.
class ThreadPool {
 public:
  static ThreadPool& Global() {
    static ThreadPool* pool = new ThreadPool();  // leaked: lives for the process
    return *pool;
  }

  // Executes fn(task) for task in [0, num_tasks) on `workers` pool workers
  // plus the calling thread, returning when every task has finished.
  // Returns false without running anything when another caller currently
  // owns the pool — the caller should then run its tasks inline instead of
  // idling behind the other batch (results are identical either way: task
  // outputs depend only on the task index, never on the executing thread).
  bool TryRun(size_t num_tasks, size_t workers,
              const std::function<void(size_t)>& fn) {
    std::unique_lock<std::mutex> run_lock(run_mutex_, std::try_to_lock);
    if (!run_lock.owns_lock()) return false;
    auto batch = std::make_shared<Batch>();
    batch->fn = &fn;
    batch->total = num_tasks;
    // Pool workers run on their own threads, so the submitting thread's
    // governance context is captured here and re-installed around every
    // task — morsel bodies see CurrentQueryContext() as if they ran inline.
    batch->ctx = CurrentQueryContext();
    {
      std::lock_guard<std::mutex> l(mutex_);
      EnsureWorkersLocked(std::min(workers, num_tasks - 1));
      batch_ = batch;
      ++generation_;
    }
    wake_cv_.notify_all();
    // The calling thread claims tasks alongside the workers. Mark it as
    // inside the pool for the duration: a loop body that itself reaches a
    // ParallelFor entry point (e.g. a user GroupWeightFn calling back into
    // the engine) must resolve to one chunk and run inline, not re-enter
    // Run and self-deadlock on run_mutex_.
    const bool was_in_pool = tls_in_pool_worker;
    tls_in_pool_worker = true;
    DrainBatch(*batch);
    tls_in_pool_worker = was_in_pool;
    {
      std::unique_lock<std::mutex> l(mutex_);
      done_cv_.wait(l, [&] { return batch->done.load() == batch->total; });
      batch_.reset();
    }
    // Every task has checked out; propagating the first failure is safe.
    if (batch->failed.load()) std::rethrow_exception(batch->error);
    return true;
  }

 private:
  struct Batch {
    const std::function<void(size_t)>* fn = nullptr;
    size_t total = 0;
    const QueryContext* ctx = nullptr;  // submitting thread's governance
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    // Shared early-exit flag, set by the first failing task and by
    // governance aborts (deadline / cancellation): siblings observe it at
    // their next morsel boundary and check remaining tasks out WITHOUT
    // running them, so one poisoned morsel halts the whole batch promptly
    // instead of letting every queued morsel run to completion. The first
    // exception is rethrown from Run after every task has checked out (so
    // the caller's lambda is never destroyed while a worker might still
    // dereference it) — no deadlock: skipped tasks still count as done.
    std::atomic<bool> failed{false};
    std::exception_ptr error;

    void RecordFailure(std::exception_ptr e) {
      if (!failed.exchange(true)) error = std::move(e);
    }
  };

  ThreadPool() = default;

  void EnsureWorkersLocked(size_t want) {
    want = std::min(want, kMaxThreads);
    while (threads_.size() < want) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void DrainBatch(Batch& batch) {
    // Tasks observe the submitting thread's governance context (workers
    // have none of their own; the draining caller already carries it, and
    // re-installing the same pointer is harmless).
    ScopedQueryContext scope(batch.ctx);
    const std::atomic<bool>* outer_failed = tls_batch_failed;
    tls_batch_failed = &batch.failed;
    size_t finished = 0;
    while (true) {
      const size_t t = batch.next.fetch_add(1, std::memory_order_relaxed);
      if (t >= batch.total) break;
      // A throwing task must still count as finished — otherwise Run waits
      // forever — and must not unwind through WorkerLoop (std::terminate).
      // The first exception is stashed and rethrown by Run once the batch
      // has fully drained. Once any task has failed (or governance aborts
      // the query), the remaining tasks are checked out unrun — the morsel-
      // boundary early exit.
      if (!batch.failed.load(std::memory_order_relaxed)) {
        try {
          CheckQueryAbortedOrThrow();
          (*batch.fn)(t);
        } catch (...) {
          batch.RecordFailure(std::current_exception());
        }
      }
      ++finished;
    }
    tls_batch_failed = outer_failed;
    if (finished > 0 &&
        batch.done.fetch_add(finished) + finished == batch.total) {
      // Completion is observed under the mutex so the waiter cannot miss it.
      std::lock_guard<std::mutex> l(mutex_);
      done_cv_.notify_all();
    }
  }

  void WorkerLoop() {
    tls_in_pool_worker = true;
    uint64_t seen_generation = 0;
    while (true) {
      std::shared_ptr<Batch> batch;
      {
        std::unique_lock<std::mutex> l(mutex_);
        wake_cv_.wait(l, [&] { return generation_ != seen_generation; });
        seen_generation = generation_;
        batch = batch_;
      }
      if (batch != nullptr) DrainBatch(*batch);
    }
  }

  std::mutex run_mutex_;  // serializes batches from concurrent callers

  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Batch> batch_;
  uint64_t generation_ = 0;
  std::vector<std::thread> threads_;  // detached lifetime: pool is leaked
};

}  // namespace

ExecOptions GetExecOptions() {
  std::lock_guard<std::mutex> l(g_options_mutex);
  return g_options;
}

void SetExecOptions(const ExecOptions& options) {
  std::lock_guard<std::mutex> l(g_options_mutex);
  g_options = options;
}

size_t ResolveThreads(int num_threads) {
  int configured = num_threads;
  if (configured <= 0) configured = GetExecOptions().num_threads;
  size_t resolved = configured > 0 ? static_cast<size_t>(configured)
                                   : EnvOrHardwareThreads();
  return std::min(std::max<size_t>(1, resolved), kMaxThreads);
}

bool MorselBatchFailed() {
  return tls_batch_failed != nullptr && tls_batch_failed->load();
}

size_t ParallelChunkCount(size_t n, size_t threads, size_t min_chunk) {
  if (min_chunk == 0) min_chunk = GetExecOptions().morsel_min_rows;
  if (min_chunk == 0) min_chunk = 1;
  if (threads <= 1 || n < 2 * min_chunk || tls_in_pool_worker) return 1;
  return std::min(threads, std::max<size_t>(1, n / min_chunk));
}

size_t ParallelFor(size_t n,
                   const std::function<void(size_t, size_t, size_t)>& fn,
                   int num_threads, size_t min_chunk) {
  const size_t chunks = ParallelChunkCount(n, ResolveThreads(num_threads),
                                           min_chunk);
  ParallelForChunks(n, chunks, fn);
  return chunks;
}

size_t AggregationChunks(size_t positions, size_t groups) {
  size_t chunks = ParallelChunkCount(positions, ResolveThreads());
  if (groups > 0) {
    chunks = std::min(chunks, std::max<size_t>(1, positions / (4 * groups)));
  }
  return chunks;
}

void ParallelForChunks(size_t n, size_t chunks,
                       const std::function<void(size_t, size_t, size_t)>& fn,
                       int num_threads) {
  if (chunks <= 1) {
    // One morsel: a single governance check up front (throws under an
    // expired/cancelled context; no-op when ungoverned).
    CheckQueryAbortedOrThrow();
    fn(0, 0, n);
    return;
  }
  // Workers are capped at the resolved thread count: fixed-chunking callers
  // (chunk counts chosen for result determinism, not matched to threads)
  // must not spawn a worker per chunk. The pool's dynamic task claiming
  // spreads the excess chunks over the capped workers.
  const size_t threads = std::min(chunks, ResolveThreads(num_threads));
  // Enforce the nested-call contract at the layer that owns the pool
  // mutex: from inside a batch (worker or draining caller), attempting
  // TryRun would try_to_lock a mutex this thread may already hold (UB), so
  // run the chunks inline regardless of how the caller derived the count.
  const bool ran =
      threads > 1 && !tls_in_pool_worker &&
      ThreadPool::Global().TryRun(chunks, threads - 1, [&](size_t c) {
        fn(c, ChunkBegin(n, chunks, c), ChunkBegin(n, chunks, c + 1));
      });
  if (!ran) {
    // Another top-level caller owns the pool; run the same chunks inline
    // rather than idling behind its batch. Identical results — partials
    // depend on chunk boundaries, not on which thread computes them. The
    // per-chunk governance check mirrors the pool's morsel-boundary check.
    for (size_t c = 0; c < chunks; ++c) {
      CheckQueryAbortedOrThrow();
      fn(c, ChunkBegin(n, chunks, c), ChunkBegin(n, chunks, c + 1));
    }
  }
}

namespace {

// Morsel boundaries for an n-row scan split into `chunks` morsels, with
// interior boundaries rounded down to multiples of `align` (the table's
// storage-chunk granularity) so no storage chunk straddles two morsels and
// each chunk is zone-classified exactly once per scan. Rounding down keeps
// the sequence monotonic; a collapsed (empty) morsel is harmless. Verdicts
// restrict to subranges, so this is a throughput choice, not a correctness
// requirement — and it cannot change results: concatenation order is by
// morsel index either way.
std::vector<size_t> MorselBounds(size_t n, size_t chunks, size_t align) {
  std::vector<size_t> b(chunks + 1);
  for (size_t c = 0; c <= chunks; ++c) b[c] = ChunkBegin(n, chunks, c);
  if (align > 1) {
    for (size_t c = 1; c < chunks; ++c) {
      b[c] = std::max(b[c] - (b[c] % align), b[c - 1]);
    }
  }
  return b;
}

}  // namespace

std::vector<uint32_t> ParallelSelect(const CompiledPredicate& cp,
                                     int num_threads) {
  const size_t n = cp.table_rows();
  const size_t chunks =
      ParallelChunkCount(n, ResolveThreads(num_threads), 0);
  if (chunks <= 1) {
    CheckQueryAbortedOrThrow();
    return cp.Select();
  }

  // Per-morsel selection vectors, then one ordered concatenation: chunk c
  // holds exactly the matching rows in [lo_c, hi_c), so the concatenated
  // result is cp.Select() bit for bit.
  const std::vector<size_t> bounds =
      MorselBounds(n, chunks, cp.zone_chunk_rows());
  std::vector<std::vector<uint32_t>> parts(chunks);
  ParallelForChunks(n, chunks, [&](size_t c, size_t, size_t) {
    parts[c] = cp.SelectRange(bounds[c], bounds[c + 1]);
  });
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<uint32_t> out;
  out.reserve(total);
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

void ParallelEvalMask(const CompiledPredicate& cp, const uint32_t* base_rows,
                      size_t n, uint8_t* out, int num_threads) {
  const size_t chunks =
      ParallelChunkCount(n, ResolveThreads(num_threads), 0);
  if (base_rows == nullptr) {
    const std::vector<size_t> bounds =
        MorselBounds(n, chunks, cp.zone_chunk_rows());
    ParallelForChunks(
        n, chunks,
        [&](size_t c, size_t, size_t) {
          cp.EvalMaskRange(bounds[c], bounds[c + 1], out + bounds[c]);
        },
        num_threads);
    return;
  }
  ParallelForChunks(
      n, chunks,
      [&](size_t, size_t lo, size_t hi) {
        cp.EvalMask(base_rows + lo, hi - lo, out + lo);
      },
      num_threads);
}

}  // namespace cvopt
