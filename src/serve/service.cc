#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/env.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "expand/expander.h"
#include "obs/metrics.h"

namespace ultrawiki {
namespace serve {
namespace {

/// Serving metrics (see README "Online expansion service"). Counters
/// partition every submitted request into exactly one terminal outcome:
/// completed, shed, or timeout. `shed` and `rejected` also count scatter
/// calls refused at admission. `latency_us` is the lifetime histogram
/// (the deterministic bench artifact); `latency_us.1m` is the sliding
/// ~60s window the admin endpoint's p50/p99 come from.
struct ServeMetrics {
  obs::Counter& accepted = obs::GetCounter("serve.accepted");
  obs::Counter& completed = obs::GetCounter("serve.completed");
  obs::Counter& shed = obs::GetCounter("serve.shed");
  obs::Counter& timeout = obs::GetCounter("serve.timeout");
  obs::Counter& rejected = obs::GetCounter("serve.rejected");
  obs::Counter& traced = obs::GetCounter("serve.traced");
  obs::Counter& slow_queries = obs::GetCounter("serve.slow_queries");
  /// Scatter plane (cluster serving): shard-scoped recall and rerank
  /// scoring calls, plus by-index query lookups.
  obs::Counter& scatter_retrieves = obs::GetCounter("serve.scatter.retrieves");
  obs::Counter& scatter_scores = obs::GetCounter("serve.scatter.scores");
  obs::Counter& lookups = obs::GetCounter("serve.lookups");
  /// Completed requests whose expander degraded to best-so-far at the
  /// deadline (subset of `completed`, disjoint from `timeout`).
  obs::Counter& degraded = obs::GetCounter("serve.degraded");
  obs::Gauge& queue_depth = obs::GetGauge("serve.queue_depth");
  obs::Gauge& queue_peak = obs::GetGauge("serve.queue_peak");
  obs::Histogram& latency_us =
      obs::GetHistogram("serve.latency_us", obs::LatencyBoundsUs());
  obs::WindowedHistogram& latency_us_1m =
      obs::GetWindowedHistogram("serve.latency_us.1m", obs::LatencyBoundsUs());
};

ServeMetrics& Metrics() {
  static ServeMetrics* metrics = new ServeMetrics();
  return *metrics;
}

}  // namespace

ServeConfig ServeConfig::FromEnv() {
  ServeConfig config;
  config.max_queue = EnvInt("UW_SERVE_QUEUE", config.max_queue, 1);
  config.default_timeout_ms =
      EnvInt("UW_SERVE_TIMEOUT_MS", config.default_timeout_ms, 0);
  config.trace_sample = EnvInt("UW_TRACE_SAMPLE", config.trace_sample, 0);
  config.slow_query_ms = EnvInt("UW_SLOW_QUERY_MS", config.slow_query_ms, 0);
  return config;
}

const std::vector<std::string>& KnownMethods() {
  static const std::vector<std::string>* methods =
      new std::vector<std::string>{"retexpan", "genexpan", "probexpan",
                                   "setexpan", "case",     "cgexpan",
                                   "gpt4",     "interaction"};
  return *methods;
}

std::unique_ptr<Expander> MakeExpanderByName(Pipeline& pipeline,
                                             const std::string& method) {
  if (method == "retexpan") return pipeline.MakeRetExpan();
  if (method == "genexpan") return pipeline.MakeGenExpan();
  if (method == "probexpan") return pipeline.MakeProbExpan();
  if (method == "setexpan") return pipeline.MakeSetExpan();
  if (method == "case") return pipeline.MakeCaSE();
  if (method == "cgexpan") return pipeline.MakeCgExpan();
  if (method == "gpt4") return pipeline.MakeGpt4Baseline();
  if (method == "interaction") {
    return pipeline.MakeInteraction(InteractionOrder::kGenThenRet);
  }
  return nullptr;
}

Status ValidateRequest(const ExpandRequest& request) {
  const auto& known = KnownMethods();
  if (std::find(known.begin(), known.end(), request.method) == known.end()) {
    return Status::InvalidArgument("unknown method: " + request.method);
  }
  if (request.k <= 0) return Status::InvalidArgument("k must be positive");
  return Status::Ok();
}

ExpansionService::ExpansionService(Pipeline& pipeline, ServeConfig config)
    : pipeline_(pipeline),
      config_(config),
      slots_(ThreadPool::Global().thread_count()),
      free_slots_(slots_) {
  Metrics();  // register eagerly so snapshots list the serve.* family
}

ExpansionService::~ExpansionService() { Drain(); }

Status ExpansionService::PrewarmMethods(
    const std::vector<std::string>& methods) {
  for (const std::string& method : methods) {
    if (GetOrBuildExpander(method) == nullptr) {
      return Status::InvalidArgument("unknown method: " + method);
    }
  }
  return Status::Ok();
}

Expander* ExpansionService::GetOrBuildExpander(const std::string& method) {
  const auto built = [this, &method]() -> Expander* {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = expanders_.find(method);
    return it != expanders_.end() ? it->second.get() : nullptr;
  };
  if (Expander* expander = built()) return expander;
  // A first use may lazily train pipeline substrates, a mutation no
  // executing call may race: the build waits for them to leave, and calls
  // admitted meanwhile wait in Enter().
  std::lock_guard<std::mutex> gate(build_mutex_);
  std::unique_lock<std::shared_mutex> exclusive(pipeline_mutex_);
  if (Expander* expander = built()) return expander;
  std::unique_ptr<Expander> expander = MakeExpanderByName(pipeline_, method);
  if (expander == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  return expanders_.emplace(method, std::move(expander)).first->second.get();
}

ExpansionService::Execution ExpansionService::Enter() {
  std::lock_guard<std::mutex> gate(build_mutex_);
  return Execution{std::shared_lock<std::shared_mutex>(pipeline_mutex_), {}};
}

Status ExpansionService::AcquireSlot() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (draining_) {
    Metrics().rejected.Increment();
    return Status::Unavailable("service draining");
  }
  if (free_slots_ > 0) {
    --free_slots_;
    ++inflight_;
    return Status::Ok();
  }
  if (static_cast<int>(waiters_.size()) >= config_.max_queue) {
    // Admission control: shed immediately instead of growing the backlog
    // past the configured bound.
    Metrics().shed.Increment();
    return Status::Unavailable("overloaded: queue depth at limit");
  }
  Waiter waiter;
  waiters_.push_back(&waiter);
  ++inflight_;
  Metrics().queue_depth.Set(static_cast<int64_t>(waiters_.size()));
  Metrics().queue_peak.UpdateMax(static_cast<int64_t>(waiters_.size()));
  waiter.wake.wait(lock, [&waiter] { return waiter.granted; });
  return Status::Ok();
}

void ExpansionService::ReleaseSlot() {
  // Notify under the lock: a granted waiter may return, and a drained
  // service be destroyed, as soon as the lock drops.
  std::lock_guard<std::mutex> lock(mutex_);
  --inflight_;
  if (waiters_.empty()) {
    ++free_slots_;
  } else {
    Waiter* next = waiters_.front();
    waiters_.pop_front();
    Metrics().queue_depth.Set(static_cast<int64_t>(waiters_.size()));
    next->granted = true;
    next->wake.notify_one();
  }
  if (draining_ && inflight_ == 0) drained_.notify_all();
}

ExpandResult ExpansionService::Expand(ExpandRequest request) {
  // Validate before admission so malformed requests never take a queue
  // place.
  if (Status invalid = ValidateRequest(request); !invalid.ok()) {
    Metrics().rejected.Increment();
    return ExpandResult{std::move(invalid), {}};
  }
  const auto admitted = std::chrono::steady_clock::now();
  const int timeout_ms = request.timeout_ms >= 0 ? request.timeout_ms
                                                 : config_.default_timeout_ms;
  const bool has_deadline = timeout_ms > 0;
  const auto deadline = admitted + std::chrono::milliseconds(timeout_ms);
  // Trace decision at admission. A trace is allocated when the request is
  // explicitly sampled (forced by the client or hit by the every-Nth
  // sampler) or when a slow-query threshold is armed — in the latter case
  // the trace is speculative and recorded only if the request turns out
  // slow. A shed request drops its trace unrecorded.
  const uint64_t sequence =
      sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
  const bool sampled =
      request.force_trace ||
      (config_.trace_sample > 0 && sequence % config_.trace_sample == 0);
  std::unique_ptr<obs::RequestTrace> trace;
  if (sampled || config_.slow_query_ms > 0) {
    trace = std::make_unique<obs::RequestTrace>(
        request.trace_id != 0 ? request.trace_id : sequence, request.method,
        admitted);
  }

  if (Status admission = AcquireSlot(); !admission.ok()) {
    return ExpandResult{std::move(admission), {}};
  }
  Slot slot(*this);
  Metrics().accepted.Increment();
  Expander* expander = GetOrBuildExpander(request.method);
  UW_CHECK(expander != nullptr) << "validated method " << request.method;
  ExpandResult result;
  {
    Execution execution = Enter();
    const auto ready = std::chrono::steady_clock::now();
    if (config_.synthetic_delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config_.synthetic_delay_ms));
    }
    const auto start = std::chrono::steady_clock::now();
    if (trace != nullptr) {
      // The two waiting stages, then the compute stage opened below;
      // together with the residual they tile the request end to end.
      trace->AddInterval("queue_wait", admitted, ready);
      trace->AddInterval("batch_wait", ready, start);
    }
    if (has_deadline && start >= deadline) {
      // Expired deadlines complete without executing.
      Metrics().timeout.Increment();
      result.status =
          Status::DeadlineExceeded("deadline expired before execution");
    } else {
      // Bind the trace to this thread so every UW_SPAN the expander opens
      // (retrieval, rerank, beam rounds, ...) records into it. Expand is
      // logically const and its nested ParallelFors run inline, so the
      // whole expansion stays on this thread and its ranking is
      // independent of what other slots run and of thread count.
      obs::ScopedRequestBinding binding(trace.get());
      const int handle = trace != nullptr ? trace->BeginSpan("execute") : -1;
      // Thread the request deadline into the expander so anytime methods
      // (GenExpan) degrade to best-so-far instead of blowing the tail;
      // budget-blind methods ignore it.
      ExpandBudget expand_budget;
      if (has_deadline) expand_budget.deadline = deadline;
      ExpandOutcome outcome = expander->ExpandWithBudget(
          request.query, static_cast<size_t>(request.k), expand_budget);
      if (trace != nullptr) trace->EndSpan(handle);
      result.status = Status::Ok();
      result.ranking = std::move(outcome.ranking);
      result.degraded = outcome.degraded;
      if (result.degraded) Metrics().degraded.Increment();
      Metrics().completed.Increment();
    }
  }
  const auto end = std::chrono::steady_clock::now();
  const int64_t latency =
      std::chrono::duration_cast<std::chrono::microseconds>(end - admitted)
          .count();
  Metrics().latency_us.Observe(latency);
  Metrics().latency_us_1m.Observe(latency);
  // Publish the trace before returning so a client that observes
  // completion also observes its slow-log entry.
  if (trace != nullptr) FinishTrace(trace->Finish(end), sampled);
  return result;
}

int ExpansionService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(waiters_.size());
}

int ExpansionService::inflight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return inflight_;
}

bool ExpansionService::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

void ExpansionService::FinishTrace(obs::RequestTraceData data,
                                   bool sampled) const {
  const bool slow =
      config_.slow_query_ms > 0 &&
      data.total_us >= static_cast<int64_t>(config_.slow_query_ms) * 1000;
  if (slow) Metrics().slow_queries.Increment();
  if (slow || sampled) {
    // `traced` counts exactly the traces that are published. Counting at
    // admission would also tally requests that were then shed (their
    // speculative trace is dropped unrecorded) and speculative slow-query
    // traces that never crossed the threshold.
    Metrics().traced.Increment();
    obs::SlowQueryLog::Global().Record(std::move(data));
  }
}

Status ExpansionService::EnableSharding(const ShardSpec& spec) {
  if (!spec.valid()) {
    return Status::InvalidArgument(
        "invalid shard spec: index " + std::to_string(spec.index) + " of " +
        std::to_string(spec.count));
  }
  shard_spec_ = spec;
  return Status::Ok();
}

StatusOr<std::vector<RecalledEntity>> ExpansionService::ScatterRetrieve(
    const Query& query, size_t size) {
  if (Status admission = AcquireSlot(); !admission.ok()) return admission;
  Slot slot(*this);
  Metrics().scatter_retrieves.Increment();
  // The recall of the very RetExpan that serves "retexpan" requests (exact
  // scan or IVF probe), over this shard's slice of the global positions.
  const auto& retexpan =
      static_cast<const RetExpan&>(*GetOrBuildExpander("retexpan"));
  Execution execution = Enter();
  return retexpan.RecallEntities(query, size, shard_spec_);
}

StatusOr<std::vector<float>> ExpansionService::ScatterScore(
    const Query& query, const std::vector<EntityId>& ids) {
  if (Status admission = AcquireSlot(); !admission.ok()) return admission;
  Slot slot(*this);
  Metrics().scatter_scores.Increment();
  Execution execution = Enter();
  return pipeline_.store().SeedCentroidScores(query.neg_seeds, ids);
}

StatusOr<Query> ExpansionService::QueryByIndex(uint32_t index) const {
  const std::vector<Query>& queries = pipeline_.dataset().queries;
  if (index >= queries.size()) {
    return Status::OutOfRange("query index " + std::to_string(index) +
                              " out of range (have " +
                              std::to_string(queries.size()) + ")");
  }
  Metrics().lookups.Increment();
  return queries[index];
}

void ExpansionService::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  drained_.wait(lock, [this] { return inflight_ == 0; });
}

}  // namespace serve
}  // namespace ultrawiki
