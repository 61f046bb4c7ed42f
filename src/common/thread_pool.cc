#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/env.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ultrawiki {
namespace {

/// Set while a pool task runs on this thread; nested ParallelFor calls
/// detect it and run inline instead of re-entering the pool.
thread_local bool tl_inside_pool_task = false;

/// Pool utilization metrics (see README "Observability"). The sequential
/// fallback path (one lane, nested calls, single-index ranges) is
/// deliberately uninstrumented: no tasks exist there.
struct PoolMetrics {
  obs::Counter& tasks_submitted = obs::GetCounter("pool.tasks_submitted");
  obs::Counter& tasks_run = obs::GetCounter("pool.tasks_run");
  obs::Counter& steals = obs::GetCounter("pool.steals");
  obs::Counter& assist_runs = obs::GetCounter("pool.assist_runs");
  obs::Gauge& peak_queue_depth = obs::GetGauge("pool.peak_queue_depth");
};

PoolMetrics& Metrics() {
  static PoolMetrics* metrics = new PoolMetrics();
  return *metrics;
}

std::mutex& GlobalPoolMutex() {
  static std::mutex mutex;
  return mutex;
}

std::unique_ptr<ThreadPool>& GlobalPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

int ThreadPool::DefaultThreadCount() {
  // 0 (the default) means one lane per hardware thread.
  const int threads = EnvInt("UW_THREADS", 0, 0);
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(GlobalPoolMutex());
  std::unique_ptr<ThreadPool>& slot = GlobalPoolSlot();
  if (slot == nullptr) slot = std::make_unique<ThreadPool>();
  return *slot;
}

Status ThreadPool::SetGlobalThreadCount(int thread_count) {
  std::lock_guard<std::mutex> lock(GlobalPoolMutex());
  std::unique_ptr<ThreadPool>& slot = GlobalPoolSlot();
  if (slot != nullptr && slot->inflight() > 0) {
    Status status = Status::FailedPrecondition(
        "SetGlobalThreadCount while the global pool has " +
        std::to_string(slot->inflight()) + " ParallelFor call(s) in flight");
    UW_LOG(Error) << status.message();
    return status;
  }
  slot = std::make_unique<ThreadPool>(thread_count);
  return Status::Ok();
}

ThreadPool::ThreadPool(int thread_count) {
  // Register the pool metrics eagerly so snapshots list them (at zero)
  // even for runs that never leave the sequential fallback.
  Metrics();
  thread_count_ = thread_count > 0 ? thread_count : DefaultThreadCount();
  const int worker_count = thread_count_ - 1;
  queues_.reserve(static_cast<size_t>(worker_count));
  for (int i = 0; i < worker_count; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(static_cast<size_t>(worker_count));
  for (int i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ThreadPool::TaskScope::TaskScope() : outer_(tl_inside_pool_task) {
  tl_inside_pool_task = true;
}

ThreadPool::TaskScope::~TaskScope() { tl_inside_pool_task = outer_; }

bool ThreadPool::TryRunOneTask(int self) {
  Task task;
  const int n = static_cast<int>(queues_.size());
  for (int offset = 0; offset < n && !task; ++offset) {
    // The owner starts with its own queue; everyone else scans from 0.
    const int idx = self >= 0 ? (self + offset) % n : offset;
    WorkerQueue& q = *queues_[static_cast<size_t>(idx)];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (q.tasks.empty()) continue;
    if (idx == self) {
      task = std::move(q.tasks.front());
      q.tasks.pop_front();
    } else {
      task = std::move(q.tasks.back());
      q.tasks.pop_back();
      // The submitting thread helping out is expected; a worker raiding
      // another worker's queue is load imbalance worth watching.
      if (self < 0) {
        Metrics().assist_runs.Increment();
      } else {
        Metrics().steals.Increment();
      }
    }
    queued_tasks_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (!task) return false;
  Metrics().tasks_run.Increment();
  TaskScope scope;
  task();
  return true;
}

void ThreadPool::WorkerLoop(int self) {
  while (true) {
    while (TryRunOneTask(self)) {
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             queued_tasks_.load(std::memory_order_relaxed) > 0;
    });
    if (stop_.load(std::memory_order_acquire)) return;
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t)>& fn) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  // Every path (including the sequential fallback) counts as in-flight
  // work: user code is running and the pool object must stay alive.
  struct InflightScope {
    explicit InflightScope(std::atomic<int64_t>& counter) : counter(counter) {
      counter.fetch_add(1, std::memory_order_acq_rel);
    }
    ~InflightScope() { counter.fetch_sub(1, std::memory_order_acq_rel); }
    std::atomic<int64_t>& counter;
  } inflight_scope(inflight_);
  // Exact sequential fallback: one lane, a nested call from inside a pool
  // task, or a range too small to split.
  if (thread_count_ == 1 || tl_inside_pool_task || n == 1) {
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  if (grain <= 0) {
    // ~4 chunks per lane balances stealing against queue traffic.
    grain = std::max<int64_t>(1, n / (4 * static_cast<int64_t>(thread_count_)));
  }
  const int64_t chunk_count = (n + grain - 1) / grain;

  struct BatchState {
    std::atomic<int64_t> remaining;
    std::mutex mutex;
    std::condition_variable done;
  };
  auto state = std::make_shared<BatchState>();
  state->remaining.store(chunk_count, std::memory_order_relaxed);

  // When tracing, tasks re-root their spans under the span path open on
  // this (submitting) thread, so worker-side spans nest under the stage
  // that spawned them instead of dangling at the root.
  std::shared_ptr<const std::vector<std::string>> trace_path;
  if (obs::TraceEnabled()) {
    std::vector<std::string> path = obs::CurrentSpanPath();
    if (!path.empty()) {
      trace_path = std::make_shared<const std::vector<std::string>>(
          std::move(path));
    }
  }
  Metrics().tasks_submitted.Increment(chunk_count);

  for (int64_t c = 0; c < chunk_count; ++c) {
    const int64_t chunk_begin = begin + c * grain;
    const int64_t chunk_end = std::min<int64_t>(chunk_begin + grain, end);
    Task task = [state, chunk_begin, chunk_end, &fn, trace_path] {
      obs::ScopedTaskParent trace_parent(trace_path.get());
      for (int64_t i = chunk_begin; i < chunk_end; ++i) fn(i);
      if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Take the lock so the submitter cannot miss the final notify
        // between its predicate check and its wait.
        std::lock_guard<std::mutex> lock(state->mutex);
        state->done.notify_all();
      }
    };
    WorkerQueue& q = *queues_[static_cast<size_t>(c % static_cast<int64_t>(
                                  queues_.size()))];
    {
      std::lock_guard<std::mutex> lock(q.mutex);
      q.tasks.push_back(std::move(task));
    }
    Metrics().peak_queue_depth.UpdateMax(
        queued_tasks_.fetch_add(1, std::memory_order_relaxed) + 1);
  }
  {
    // Pair the notify with the workers' wait predicate.
    std::lock_guard<std::mutex> lock(wake_mutex_);
  }
  wake_cv_.notify_all();

  // The submitting thread works too: steal chunks until none are queued,
  // then block for the stragglers other lanes are still running.
  while (state->remaining.load(std::memory_order_acquire) > 0) {
    if (TryRunOneTask(/*self=*/-1)) continue;
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done.wait_for(lock, std::chrono::milliseconds(1), [&state] {
      return state->remaining.load(std::memory_order_acquire) == 0;
    });
  }
}

}  // namespace ultrawiki
