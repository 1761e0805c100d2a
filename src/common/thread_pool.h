// Fixed-size worker pool with a blocking, dynamically scheduled
// ParallelForEach, and the fixed-grain block loops built on it. Used by the
// EM cluster-optimization step (paper §5.4 reports a 3.19x speedup with
// four threads for exactly this loop structure), by g1 scoring, by the
// strength learner's statistics build and fused ParallelForReduce, and by
// batched inference.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "common/cache_line.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace genclus {

/// A fixed set of worker threads executing submitted closures.
///
/// ParallelForEach hands the indices of a range out one at a time from a
/// shared cursor and blocks until all have run, so a slow or descheduled
/// worker holds back only the index it is running.
///
/// Exception safety: a task that throws does not kill its worker thread or
/// leak the in-flight count. A Submit()ted task's first exception is
/// captured and rethrown from the next Wait(); a ParallelForEach index's
/// first exception is rethrown from that call itself. The pool stays
/// usable after a rethrow.
///
/// Concurrency: ParallelForEach tracks completion per call, so multiple
/// threads may run batches on one pool concurrently (the serving tier's
/// worker sessions do) — each call blocks on exactly its own tasks and sees
/// exactly its own errors. Calling it from inside a pool task still
/// deadlocks; fan out from external threads only.
class ThreadPool {
 public:
  /// Creates `num_threads` workers. `num_threads == 0` means "hardware
  /// concurrency" (at least 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Runs fn(i) exactly once for every i in [0, n). min(num_threads, n)
  /// pool tasks claim indices from one shared atomic cursor, so indices run
  /// in no fixed order and on any worker. Runs inline, in ascending order,
  /// when the pool has a single thread or n is under two indices per
  /// thread. After an index throws, the unclaimed indices are dropped; the
  /// first exception is rethrown once every task has finished. Safe to
  /// call from multiple threads concurrently (per-call completion state).
  void ParallelForEach(size_t n, const std::function<void(size_t)>& fn)
      GENCLUS_EXCLUDES(mutex_);

  /// Submits one task for asynchronous execution.
  void Submit(std::function<void()> task) GENCLUS_EXCLUDES(mutex_);

  /// Blocks until all submitted tasks have finished, then rethrows the
  /// first exception any of them raised (if one did). The rethrow happens
  /// after the pool mutex is released, so a catch handler may call back
  /// into the pool (Submit/Wait) without self-deadlocking.
  void Wait() GENCLUS_EXCLUDES(mutex_);

 private:
  void WorkerLoop() GENCLUS_EXCLUDES(mutex_);

  // threads_ is written only during construction (before any worker can
  // observe it) and joined in the destructor; it needs no guard, which is
  // what lets num_threads() stay lock-free.
  std::vector<std::thread> threads_;
  Mutex mutex_;
  CondVar task_available_;
  CondVar all_done_;
  std::queue<std::function<void()>> tasks_ GENCLUS_GUARDED_BY(mutex_);
  size_t in_flight_ GENCLUS_GUARDED_BY(mutex_) = 0;
  bool shutdown_ GENCLUS_GUARDED_BY(mutex_) = false;
  std::exception_ptr first_error_ GENCLUS_GUARDED_BY(mutex_);
};

/// Runs `body(block, begin, end)` over the fixed-size-block partition of
/// [0, n): block b covers [b * grain, min(n, (b + 1) * grain)). The
/// partition is a function of n and grain only — never of the thread
/// count — so callers that keep per-block state (ParallelForReduce's
/// partials, the EM sweep's workspace accumulators) get thread-invariant
/// block boundaries for free.
///
/// Contract: workers claim blocks one at a time from a shared cursor
/// (ThreadPool::ParallelForEach), so blocks run in no fixed order and any
/// block may run on any worker — neighbouring blocks usually run on
/// different cores at the same time. A body may therefore write only its
/// own block's state, and per-block state written while a block runs must
/// not share a cache line with another block's (give it whole lines with
/// alignas(kCacheLineBytes) or a CacheLineVector, or accumulate in locals
/// and store once at block end).
/// Results must come from block-order merges, never from the order in
/// which blocks finished.
///
/// Blocks run inline in ascending order when the pool is null, has a
/// single thread, or there are fewer than two blocks per thread.
/// Exceptions from `body` propagate to the caller.
template <typename Body>
void ForEachFixedGrainBlock(ThreadPool* pool, size_t n, size_t grain,
                            const Body& body) {
  if (n == 0) return;
  const size_t g = std::max<size_t>(1, grain);
  const size_t num_blocks = (n + g - 1) / g;
  const auto run_block = [&](size_t b) {
    body(b, b * g, std::min(n, (b + 1) * g));
  };
  if (pool != nullptr) {
    pool->ParallelForEach(num_blocks, run_block);
  } else {
    for (size_t b = 0; b < num_blocks; ++b) run_block(b);
  }
}

/// Blocked deterministic parallel reduction over [0, n).
///
/// The range is cut into fixed-size blocks (ForEachFixedGrainBlock). Each
/// block accumulates into its own partial state (`body(state, begin,
/// end)`) and the partials are folded into one result in increasing block
/// order (`merge(into, from)`). Because both the block boundaries and the
/// merge order are independent of how blocks were scheduled, the reduced
/// result is bitwise identical for any thread count, including
/// `pool == nullptr` (fully sequential). Blocks run side by side, so a
/// body that updates its partial many times should accumulate in locals
/// and store once at block end (see ForEachFixedGrainBlock).
///
/// `make()` must produce an identity partial (merging it first is a
/// no-op).
template <typename State, typename MakeState, typename Body, typename Merge>
State ParallelForReduce(ThreadPool* pool, size_t n, size_t grain,
                        const MakeState& make, const Body& body,
                        const Merge& merge) {
  State result = make();
  if (n == 0) return result;
  const size_t g = std::max<size_t>(1, grain);
  const size_t num_blocks = (n + g - 1) / g;
  std::vector<State> partials;
  partials.reserve(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) partials.push_back(make());

  ForEachFixedGrainBlock(pool, n, grain,
                         [&](size_t b, size_t begin, size_t end) {
                           body(partials[b], begin, end);
                         });
  for (size_t b = 0; b < num_blocks; ++b) {
    merge(result, std::move(partials[b]));
  }
  return result;
}

}  // namespace genclus
