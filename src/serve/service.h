#ifndef ULTRAWIKI_SERVE_SERVICE_H_
#define ULTRAWIKI_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "expand/pipeline.h"
#include "obs/request_trace.h"
#include "serve/protocol.h"

namespace ultrawiki {
namespace serve {

/// Knobs of the online expansion service. `FromEnv()` resolves the
/// production defaults from the environment:
///
///   UW_SERVE_QUEUE         admission-controlled queue depth bound (256)
///   UW_SERVE_TIMEOUT_MS    default per-request deadline, 0 = none (0)
///   UW_TRACE_SAMPLE        trace every Nth accepted request, 0 = off (0)
///   UW_SLOW_QUERY_MS       log requests slower than this, 0 = off (0)
///
/// The number of requests served at once is the global ThreadPool's lane
/// count (`UW_THREADS`) when the service is constructed.
struct ServeConfig {
  int max_queue = 256;
  int default_timeout_ms = 0;
  /// Synthetic per-request stall between dequeue and the deadline check
  /// (traced as `batch_wait`). Load-shaping knob for the overload bench
  /// and the shedding/deadline tests; leave 0 in production.
  int synthetic_delay_ms = 0;
  /// Trace every Nth accepted request (1 = all, 0 = only forced /
  /// slow-threshold traces). Tracing is passive: rankings are
  /// bit-identical at any sampling rate.
  int trace_sample = 0;
  /// Requests slower end-to-end than this land in the SlowQueryLog with
  /// their full span tree. 0 disables the slow-query log.
  int slow_query_ms = 0;

  static ServeConfig FromEnv();
};

/// One expansion request submitted to the service. `timeout_ms < 0`
/// inherits the config default; 0 disables the deadline.
struct ExpandRequest {
  std::string method;
  Query query;
  int k = 20;
  int timeout_ms = -1;
  /// Trace context from the wire (frame header extension). `trace_id` 0
  /// means none supplied — the service assigns its own if it decides to
  /// trace. `force_trace` (the header's sample flag) traces this request
  /// regardless of the sampling rate.
  uint64_t trace_id = 0;
  bool force_trace = false;
};

/// Status + ranking. On any non-OK status the ranking is empty.
/// `degraded` marks an OK result whose expander hit the request deadline
/// mid-flight and returned a budget-truncated (but valid, ranked)
/// best-so-far instead of timing out — the anytime-degradation contract.
struct ExpandResult {
  Status status;
  std::vector<EntityId> ranking;
  bool degraded = false;
};

/// Case-stable registry of method names the service can serve
/// ("retexpan", "genexpan", "probexpan", "setexpan", "case", "cgexpan",
/// "gpt4", "interaction"). Shared with the offline query runner.
const std::vector<std::string>& KnownMethods();

/// Builds the expander for `method`, or nullptr for an unknown name.
/// May lazily train pipeline substrates (contrast store, distributions).
std::unique_ptr<Expander> MakeExpanderByName(Pipeline& pipeline,
                                             const std::string& method);

/// Long-lived serving front-end over a resident Pipeline.
///
/// Requests enter a bounded MPMC queue (admission control: when
/// `max_queue` requests are already waiting, new arrivals are shed
/// immediately with kUnavailable rather than growing the backlog).
/// Dispatch is work-conserving: a scheduler thread sleeps until the queue
/// is non-empty, then opens one dispatch on the service's own lane pool, in
/// which every lane pulls the front request the moment it is free. An
/// idle lane stays in the dispatch while a sibling runs, so no request
/// waits for a window or for a sibling. The dispatch ends once nothing
/// runnable is queued and every lane is idle. A request whose method has
/// no expander yet is not runnable: the scheduler builds the expander
/// between dispatches, so the pipeline never mutates under a running
/// expander. A lane checks the deadline when it takes the request;
/// expired requests complete with kDeadlineExceeded without executing.
/// The lanes are not global-pool tasks: a ParallelFor elsewhere in the
/// process (an expander build, a hot-swap rebuild) can neither steal a
/// lane nor find the global pool's workers parked in a dispatch.
///
/// Determinism: expanders are logically const (expander.h contract), so a
/// request's ranking is bit-identical whatever else runs beside it, at
/// any thread count.
///
/// `Drain()` (also run by the destructor) stops admission, serves
/// everything already queued, and joins the scheduler — the graceful
/// SIGINT/SIGTERM path of `uw_serve`.
class ExpansionService {
 public:
  /// `pipeline` must outlive the service. Expander instances are created
  /// lazily on first use per method; `PrewarmMethods` front-loads that
  /// cost before traffic arrives.
  explicit ExpansionService(Pipeline& pipeline,
                            ServeConfig config = ServeConfig::FromEnv());
  ~ExpansionService();

  ExpansionService(const ExpansionService&) = delete;
  ExpansionService& operator=(const ExpansionService&) = delete;

  /// Builds the expanders for `methods` now. Unknown names fail.
  Status PrewarmMethods(const std::vector<std::string>& methods);

  /// Asynchronous submission; the future resolves when the request is
  /// served, shed, or timed out. Unknown methods and invalid k fail
  /// immediately with kInvalidArgument.
  std::future<ExpandResult> Submit(ExpandRequest request);

  /// Blocking convenience over Submit.
  ExpandResult ExpandSync(ExpandRequest request);

  /// Stops admission, serves the backlog, joins the scheduler.
  /// Idempotent.
  void Drain();

  // --- Shard role (cluster serving; see serve/router.h). ---

  /// Scopes the scatter recall to one slice of the deterministic
  /// candidate partition (the default {0, 1} is the whole list). Only the
  /// recall is sliced: the service keeps the full pipeline and its full
  /// EntityStore, so it serves every method and scores any seeds. Call
  /// before taking traffic — the spec is not synchronized against
  /// in-flight scatter calls.
  Status EnableSharding(const ShardSpec& spec);

  /// Scatter recall: RetExpan::Recall over this service's slice, run by
  /// the same RetExpan that serves "retexpan" requests (so UW_ANN_ENABLE
  /// applies), carrying *global* candidate positions so the router's
  /// TopKStream merge reproduces the unsharded ranking bit for bit.
  StatusOr<std::vector<ShardScoredEntity>> ScatterRetrieve(
      const Query& query, size_t size) const;

  /// Scatter rerank support: pos/neg seed-centroid scores for explicit
  /// ids, on the full store (ids the store lacks score 0, exactly as the
  /// full scan scores them).
  StatusOr<ShardScores> ScatterScore(const Query& query,
                                     const std::vector<EntityId>& ids) const;

  /// Resolves a dataset query index (the wire `by_index` path).
  StatusOr<Query> QueryByIndex(uint32_t index) const;

  const ShardSpec& shard_spec() const { return shard_spec_; }

  const ServeConfig& config() const { return config_; }
  const Pipeline& pipeline() const { return pipeline_; }
  /// Requests currently waiting (excludes executing requests).
  int queue_depth() const;
  /// Requests admitted but not yet resolved (queued + executing).
  int inflight() const { return inflight_.load(std::memory_order_relaxed); }
  /// True once Drain() has started (admission is closed).
  bool draining() const;

 private:
  struct Pending {
    ExpandRequest request;
    std::chrono::steady_clock::time_point admitted;
    std::chrono::steady_clock::time_point dequeued;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
    std::promise<ExpandResult> promise;
    /// Non-null only for traced requests (sampled / forced / slow-query
    /// threshold armed). Epoch = `admitted`.
    std::unique_ptr<obs::RequestTrace> trace;
  };

  void SchedulerLoop();
  /// One dispatch lane: takes runnable requests until none is queued and
  /// no lane is busy. Returns how many requests it took.
  int64_t RunLane();
  /// Serves one dequeued request on the calling lane and resolves it.
  void Execute(Pending& pending, Expander& expander);
  /// The built expander for `method`, or nullptr. Requires `mutex_`.
  Expander* BuiltExpander(const std::string& method) const;
  Expander* GetOrBuildExpander(const std::string& method) const;
  /// Finishes a traced request: records the trace into the SlowQueryLog
  /// when it is slow or forced, then drops it.
  void FinishTrace(Pending& pending,
                   std::chrono::steady_clock::time_point end);

  Pipeline& pipeline_;
  const ServeConfig config_;

  ShardSpec shard_spec_;

  /// Guards queue_, busy_lanes_, draining_ and expanders_. Lanes take no
  /// other service lock.
  mutable std::mutex mutex_;
  /// Wakes the scheduler (arrival, drain) and idle lanes (arrival, last
  /// busy lane done).
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  int busy_lanes_ = 0;
  bool draining_ = false;

  /// Serializes expander builds (pipeline mutation); taken before
  /// `mutex_`, never by a lane. Mutable: the const scatter plane builds
  /// the "retexpan" expander lazily too.
  mutable std::mutex build_mutex_;
  mutable std::map<std::string, std::unique_ptr<Expander>> expanders_;
  /// The dispatch lanes, as many as the global pool has.
  ThreadPool lanes_;

  std::once_flag drain_once_;
  std::thread scheduler_;

  /// Admission sequence (drives the every-Nth sampling decision) and the
  /// live in-flight gauge for the admin endpoint.
  std::atomic<uint64_t> sequence_{0};
  std::atomic<int> inflight_{0};
};

}  // namespace serve
}  // namespace ultrawiki

#endif  // ULTRAWIKI_SERVE_SERVICE_H_
