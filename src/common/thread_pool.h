#ifndef ULTRAWIKI_COMMON_THREAD_POOL_H_
#define ULTRAWIKI_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace ultrawiki {

/// Work-stealing thread pool behind every parallel stage of the library
/// (per-query evaluation, entity-store construction, batched BM25, the
/// bench harness).
///
/// Determinism contract: `ParallelFor`/`ParallelMap` only parallelise
/// *independent per-index work* — each index writes its own output slot,
/// and any reduction over the slots is performed by the caller in index
/// order. Results are therefore bit-identical to the sequential path for
/// every thread count; `thread_count == 1` does not even touch the worker
/// machinery (exact sequential fallback).
///
/// Thread count resolution: an explicit constructor argument wins;
/// otherwise the `UW_THREADS` environment variable; otherwise
/// `std::thread::hardware_concurrency()`.
class ThreadPool {
 public:
  /// `thread_count <= 0` means "use DefaultThreadCount()". A pool of
  /// `n` executes with `n` concurrent lanes: `n - 1` worker threads plus
  /// the calling thread, which always participates in its own batches.
  explicit ThreadPool(int thread_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of concurrent execution lanes (always >= 1).
  int thread_count() const { return thread_count_; }

  /// `UW_THREADS` if set to a positive integer, else hardware concurrency
  /// (at least 1).
  static int DefaultThreadCount();

  /// Process-wide shared pool, created lazily with DefaultThreadCount().
  static ThreadPool& Global();

  /// Replaces the global pool with one of `thread_count` lanes. Intended
  /// for tests and benchmarks that compare thread counts in one process.
  /// Fails with kFailedPrecondition — and leaves the existing pool
  /// untouched — if the global pool has parallel work in flight (an
  /// `inflight()` check), since destroying a pool mid-ParallelFor is
  /// undefined behaviour and, from inside one of its own tasks, a
  /// guaranteed self-join deadlock.
  static Status SetGlobalThreadCount(int thread_count);

  /// Number of ParallelFor invocations currently executing on this pool
  /// (including sequential-fallback and nested inline calls). Exact only
  /// once callers are quiescent; used to refuse unsafe pool swaps.
  int64_t inflight() const {
    return inflight_.load(std::memory_order_acquire);
  }

  /// Calls `fn(i)` for every i in [begin, end), splitting the range into
  /// chunks of `grain` indices (`grain <= 0` picks one automatically).
  /// Blocks until every index has run. Calls made from inside a pool task
  /// run inline (sequentially) — nesting never deadlocks and never
  /// changes results.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t)>& fn);

  /// Marks the calling thread as inside a pool task while it lives, so
  /// every ParallelFor the thread calls meanwhile runs inline, exactly as
  /// on a pool worker. For a thread that is itself one unit of bounded
  /// concurrency, such as a serving thread holding an execution slot.
  class TaskScope {
   public:
    TaskScope();
    ~TaskScope();
    TaskScope(const TaskScope&) = delete;
    TaskScope& operator=(const TaskScope&) = delete;

   private:
    bool outer_;
  };

  /// Ordered-reduction map: returns {fn(0), fn(1), ..., fn(n-1)} with each
  /// slot written by exactly one task, so the output order — and any
  /// fold the caller performs over it — is independent of scheduling.
  template <typename T>
  std::vector<T> ParallelMap(int64_t n, const std::function<T(int64_t)>& fn,
                             int64_t grain = 0) {
    std::vector<T> out(static_cast<size_t>(n > 0 ? n : 0));
    ParallelFor(0, n, grain,
                [&](int64_t i) { out[static_cast<size_t>(i)] = fn(i); });
    return out;
  }

 private:
  using Task = std::function<void()>;

  /// One double-ended queue per worker: the owner pops newest-first from
  /// the front, thieves (other workers and the submitting thread) steal
  /// oldest-first from the back.
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void WorkerLoop(int self);

  /// Runs one task if any queue has one: `self`'s own queue first (front),
  /// then the other queues (back). `self < 0` (the submitting thread)
  /// steals only. Returns false when every queue was empty.
  bool TryRunOneTask(int self);

  int thread_count_ = 1;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<int64_t> queued_tasks_{0};
  std::atomic<int64_t> inflight_{0};
  std::atomic<bool> stop_{false};
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
};

}  // namespace ultrawiki

#endif  // ULTRAWIKI_COMMON_THREAD_POOL_H_
