#ifndef ULTRAWIKI_SERVE_SERVICE_H_
#define ULTRAWIKI_SERVE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
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
/// The number of requests served at once (execution slots) is the global
/// ThreadPool's lane count (`UW_THREADS`) when the service is constructed.
struct ServeConfig {
  int max_queue = 256;
  int default_timeout_ms = 0;
  /// Synthetic per-request stall after the request takes its slot and
  /// before the deadline check, holding the slot and the pipeline lock
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

/// kInvalidArgument for an unknown method or a non-positive k, else OK.
/// The one request check of every front-end (service and router), so each
/// rejects exactly what the other does.
Status ValidateRequest(const ExpandRequest& request);

/// Long-lived serving front-end over a resident Pipeline.
///
/// Run to completion: a request runs on the caller's own thread (a TCP
/// connection handler, a test thread) once that thread holds one of
/// `slots()` execution slots, as many as the global ThreadPool has lanes
/// (`UW_THREADS`) at construction. Callers waiting for a slot form a
/// bounded FIFO (admission control: when `max_queue` callers already wait,
/// the next one is shed at once with kUnavailable rather than growing the
/// backlog). A finishing call hands its slot straight to the head waiter
/// and wakes that thread only. After the slot, the deadline is checked;
/// an expired request completes with kDeadlineExceeded without executing.
/// The scatter calls take slots the same way.
///
/// A method's expander is built on first use. A build may train pipeline
/// substrates, so it holds the pipeline lock exclusively and an executing
/// call holds it shared: a build waits for the running calls, and calls
/// admitted meanwhile wait for the build. An executing call marks its
/// thread as a pool task (ThreadPool::TaskScope), so its nested
/// ParallelFors run inline and it uses no thread but its own.
///
/// Determinism: expanders are logically const (expander.h contract), so a
/// request's ranking is bit-identical whatever else runs beside it, at
/// any thread count.
///
/// `Drain()` (also run by the destructor) closes admission and returns
/// once every admitted call, waiting ones included, has finished: the
/// graceful SIGINT/SIGTERM path of `uw_serve`.
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

  /// Serves `request` on the calling thread and returns when it is
  /// served, shed, rejected or timed out. Invalid requests
  /// (ValidateRequest) fail at once and never take a queue place.
  ExpandResult Expand(ExpandRequest request);

  /// Closes admission and waits until `inflight()` is 0. Idempotent.
  void Drain();

  // --- Shard role (cluster serving; see serve/router.h). ---

  /// Scopes the scatter recall to one slice of the deterministic
  /// candidate partition (the default {0, 1} is the whole list). Only the
  /// recall is sliced: the service keeps the full pipeline and its full
  /// EntityStore, so it serves every method and scores any seeds. Call
  /// before taking traffic — the spec is not synchronized against
  /// in-flight scatter calls.
  Status EnableSharding(const ShardSpec& spec);

  /// Scatter recall: RetExpan::RecallEntities over this service's slice,
  /// run by the same RetExpan that serves "retexpan" requests (so
  /// UW_ANN_ENABLE applies), carrying *global* candidate positions so the
  /// router's merge reproduces the unsharded ranking bit for bit.
  StatusOr<std::vector<ShardScoredEntity>> ScatterRetrieve(const Query& query,
                                                           size_t size);

  /// Scatter rerank support: negative-seed centroid scores for explicit
  /// ids, on the full store (ids the store lacks score 0, exactly as the
  /// full scan scores them).
  StatusOr<std::vector<float>> ScatterScore(const Query& query,
                                            const std::vector<EntityId>& ids);

  /// Resolves a dataset query index (the wire `by_index` path).
  StatusOr<Query> QueryByIndex(uint32_t index) const;

  const ShardSpec& shard_spec() const { return shard_spec_; }

  const ServeConfig& config() const { return config_; }
  const Pipeline& pipeline() const { return pipeline_; }
  /// Execution slots: calls that run at once.
  int slots() const { return slots_; }
  /// Callers waiting for a slot (excludes executing calls).
  int queue_depth() const;
  /// Calls admitted but not finished (waiting + executing).
  int inflight() const;
  /// True once Drain() has started (admission is closed).
  bool draining() const;

 private:
  /// One caller waiting for a slot, on its own stack.
  struct Waiter {
    std::condition_variable wake;
    bool granted = false;
  };

  /// An execution slot the calling thread holds; handed on when it goes.
  class Slot {
   public:
    explicit Slot(ExpansionService& service) : service_(service) {}
    ~Slot() { service_.ReleaseSlot(); }
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;

   private:
    ExpansionService& service_;
  };

  /// What an executing call holds: the pipeline lock shared, and the pool
  /// task mark that keeps its nested ParallelFors inline.
  struct Execution {
    std::shared_lock<std::shared_mutex> pipeline;
    ThreadPool::TaskScope inline_parallel;
  };

  /// Admits the calling thread and returns once it holds a slot (then
  /// guard it with a Slot). kUnavailable when draining or shed.
  Status AcquireSlot();
  /// Hands the caller's slot to the head waiter, or frees it. The last
  /// touch of the service by a finishing call: Drain may return after it.
  void ReleaseSlot();
  /// The expander for `method`, built under the exclusive pipeline lock
  /// on first use; nullptr for an unknown name. Call without an Execution.
  Expander* GetOrBuildExpander(const std::string& method);
  /// Waits for any pending build, then takes the pipeline lock shared.
  Execution Enter();
  /// Records a finished trace into the SlowQueryLog when it is slow or
  /// sampled; otherwise drops it.
  void FinishTrace(obs::RequestTraceData data, bool sampled) const;

  Pipeline& pipeline_;
  const ServeConfig config_;
  const int slots_;

  ShardSpec shard_spec_;

  /// Guards free_slots_, waiters_, inflight_, draining_ and expanders_.
  mutable std::mutex mutex_;
  int free_slots_;
  std::deque<Waiter*> waiters_;
  int inflight_ = 0;
  bool draining_ = false;
  /// Signalled when the last call finishes after Drain() started.
  std::condition_variable drained_;
  std::map<std::string, std::unique_ptr<Expander>> expanders_;

  /// Held exclusively by a build, shared by every executing call.
  std::shared_mutex pipeline_mutex_;
  /// Serializes builds, and gives a waiting build priority: a call passes
  /// through it before taking `pipeline_mutex_` shared.
  std::mutex build_mutex_;

  /// Admission sequence: drives the every-Nth sampling decision.
  std::atomic<uint64_t> sequence_{0};
};

}  // namespace serve
}  // namespace ultrawiki

#endif  // ULTRAWIKI_SERVE_SERVICE_H_
