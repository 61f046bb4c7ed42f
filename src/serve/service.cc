#include "serve/service.h"

#include <algorithm>

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
/// completed, shed, or timeout. `latency_us` is the lifetime histogram
/// (the deterministic bench artifact); `latency_us.1m` is the sliding
/// ~60s window the admin endpoint's p50/p99 come from.
struct ServeMetrics {
  obs::Counter& accepted = obs::GetCounter("serve.accepted");
  obs::Counter& completed = obs::GetCounter("serve.completed");
  obs::Counter& shed = obs::GetCounter("serve.shed");
  obs::Counter& timeout = obs::GetCounter("serve.timeout");
  obs::Counter& rejected = obs::GetCounter("serve.rejected");
  /// Dispatches; `batch_size` observes the requests each one served.
  obs::Counter& batches = obs::GetCounter("serve.batches");
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
  obs::Histogram& batch_size =
      obs::GetHistogram("serve.batch_size", {1, 2, 4, 8, 16, 32, 64, 128});
  obs::Histogram& latency_us =
      obs::GetHistogram("serve.latency_us", obs::LatencyBoundsUs());
  obs::WindowedHistogram& latency_us_1m =
      obs::GetWindowedHistogram("serve.latency_us.1m", obs::LatencyBoundsUs());
};

ServeMetrics& Metrics() {
  static ServeMetrics* metrics = new ServeMetrics();
  return *metrics;
}

std::future<ExpandResult> ImmediateResult(Status status) {
  std::promise<ExpandResult> promise;
  promise.set_value(ExpandResult{std::move(status), {}});
  return promise.get_future();
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

ExpansionService::ExpansionService(Pipeline& pipeline, ServeConfig config)
    : pipeline_(pipeline),
      config_(config),
      lanes_(ThreadPool::Global().thread_count()) {
  Metrics();  // register eagerly so snapshots list the serve.* family
  scheduler_ = std::thread([this] { SchedulerLoop(); });
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

Expander* ExpansionService::GetOrBuildExpander(
    const std::string& method) const {
  // Builds are serialized by `build_mutex_` and run outside `mutex_`; only
  // the finished expander is published under `mutex_`, so a lane never
  // waits on a build.
  std::lock_guard<std::mutex> build(build_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (Expander* built = BuiltExpander(method)) return built;
  }
  std::unique_ptr<Expander> expander = MakeExpanderByName(pipeline_, method);
  if (expander == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  return expanders_.emplace(method, std::move(expander)).first->second.get();
}

std::future<ExpandResult> ExpansionService::Submit(ExpandRequest request) {
  // Validate before admission so malformed requests never consume queue
  // capacity.
  const auto& known = KnownMethods();
  if (std::find(known.begin(), known.end(), request.method) == known.end()) {
    Metrics().rejected.Increment();
    return ImmediateResult(
        Status::InvalidArgument("unknown method: " + request.method));
  }
  if (request.k <= 0) {
    Metrics().rejected.Increment();
    return ImmediateResult(Status::InvalidArgument("k must be positive"));
  }

  Pending pending;
  pending.admitted = std::chrono::steady_clock::now();
  const int timeout_ms = request.timeout_ms >= 0 ? request.timeout_ms
                                                 : config_.default_timeout_ms;
  if (timeout_ms > 0) {
    pending.has_deadline = true;
    pending.deadline =
        pending.admitted + std::chrono::milliseconds(timeout_ms);
  }
  // Trace decision at admission. A trace is allocated when the request is
  // explicitly sampled (forced by the client or hit by the every-Nth
  // sampler) or when a slow-query threshold is armed — in the latter case
  // the trace is speculative and recorded only if the request turns out
  // slow. `force_trace` downstream means "record unconditionally".
  const uint64_t sequence =
      sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
  const bool sampled =
      request.force_trace ||
      (config_.trace_sample > 0 && sequence % config_.trace_sample == 0);
  request.force_trace = sampled;
  if (sampled || config_.slow_query_ms > 0) {
    const uint64_t trace_id =
        request.trace_id != 0 ? request.trace_id : sequence;
    pending.trace = std::make_unique<obs::RequestTrace>(
        trace_id, request.method, pending.admitted);
  }
  pending.request = std::move(request);
  std::future<ExpandResult> future = pending.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      Metrics().rejected.Increment();
      pending.promise.set_value(
          ExpandResult{Status::Unavailable("service draining"), {}});
      return future;
    }
    if (static_cast<int>(queue_.size()) >= config_.max_queue) {
      // Admission control: shed immediately instead of growing the
      // backlog past the configured bound.
      Metrics().shed.Increment();
      pending.promise.set_value(ExpandResult{
          Status::Unavailable("overloaded: queue depth at limit"), {}});
      return future;
    }
    queue_.push_back(std::move(pending));
    inflight_.fetch_add(1, std::memory_order_relaxed);
    Metrics().accepted.Increment();
    Metrics().queue_depth.Set(static_cast<int64_t>(queue_.size()));
    Metrics().queue_peak.UpdateMax(static_cast<int64_t>(queue_.size()));
  }
  cv_.notify_one();
  return future;
}

ExpandResult ExpansionService::ExpandSync(ExpandRequest request) {
  return Submit(std::move(request)).get();
}

int ExpansionService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(queue_.size());
}

bool ExpansionService::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

void ExpansionService::FinishTrace(
    Pending& pending, std::chrono::steady_clock::time_point end) {
  if (pending.trace == nullptr) return;
  obs::RequestTraceData data = pending.trace->Finish(end);
  pending.trace.reset();
  const bool slow =
      config_.slow_query_ms > 0 &&
      data.total_us >= static_cast<int64_t>(config_.slow_query_ms) * 1000;
  if (slow) Metrics().slow_queries.Increment();
  if (slow || pending.request.force_trace) {
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

StatusOr<std::vector<ShardScoredEntity>> ExpansionService::ScatterRetrieve(
    const Query& query, size_t size) const {
  if (draining()) return Status::Unavailable("service draining");
  Metrics().scatter_retrieves.Increment();
  // The recall of the very RetExpan that serves "retexpan" requests
  // (exact scan or IVF probe, whichever it is configured for), over this
  // shard's slice of the global candidate positions — so the union of
  // all shards' results holds the global top `size`, score- and
  // tie-break-identical.
  const auto& retexpan =
      static_cast<const RetExpan&>(*GetOrBuildExpander("retexpan"));
  const std::vector<EntityId>& candidates = pipeline_.candidates();
  std::vector<ShardScoredEntity> entities;
  for (const ScoredIndex& s : retexpan.Recall(query, size, shard_spec_)) {
    entities.push_back(ShardScoredEntity{
        s.score, static_cast<uint64_t>(s.index), candidates[s.index]});
  }
  return entities;
}

StatusOr<ShardScores> ExpansionService::ScatterScore(
    const Query& query, const std::vector<EntityId>& ids) const {
  if (draining()) return Status::Unavailable("service draining");
  Metrics().scatter_scores.Increment();
  ShardScores scores;
  scores.pos = pipeline_.store().SeedCentroidScores(query.pos_seeds, ids);
  scores.neg = pipeline_.store().SeedCentroidScores(query.neg_seeds, ids);
  return scores;
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
  std::call_once(drain_once_, [this] {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      draining_ = true;
    }
    cv_.notify_all();
    if (scheduler_.joinable()) scheduler_.join();
  });
}

void ExpansionService::SchedulerLoop() {
  while (true) {
    std::string method;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) return;  // draining and fully served
      method = queue_.front().request.method;
    }
    // A first use may lazily train pipeline substrates, a mutation no
    // running expander may race, so expanders are built here, between
    // dispatches, never on a lane.
    UW_CHECK(GetOrBuildExpander(method) != nullptr)
        << "Submit admitted unknown method " << method;
    // One dispatch: every lane pulls requests until nothing runnable is
    // queued and no lane is busy.
    std::atomic<int64_t> served{0};
    lanes_.ParallelFor(0, lanes_.thread_count(), /*grain=*/1, [&](int64_t) {
      served.fetch_add(RunLane(), std::memory_order_relaxed);
    });
    Metrics().batches.Increment();
    Metrics().batch_size.Observe(served.load(std::memory_order_relaxed));
  }
}

Expander* ExpansionService::BuiltExpander(const std::string& method) const {
  auto it = expanders_.find(method);
  return it != expanders_.end() ? it->second.get() : nullptr;
}

int64_t ExpansionService::RunLane() {
  int64_t served = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    // An idle lane stays in the dispatch while a sibling is busy, so an
    // arrival never waits for a lane that is free.
    Expander* expander = nullptr;
    cv_.wait(lock, [&] {
      expander = queue_.empty()
                     ? nullptr
                     : BuiltExpander(queue_.front().request.method);
      return expander != nullptr || busy_lanes_ == 0;
    });
    if (expander == nullptr) return served;
    Pending pending = std::move(queue_.front());
    queue_.pop_front();
    pending.dequeued = std::chrono::steady_clock::now();
    Metrics().queue_depth.Set(static_cast<int64_t>(queue_.size()));
    ++busy_lanes_;
    ++served;
    lock.unlock();
    Execute(pending, *expander);
    lock.lock();
    if (--busy_lanes_ == 0) cv_.notify_all();
  }
}

void ExpansionService::Execute(Pending& pending, Expander& expander) {
  if (config_.synthetic_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.synthetic_delay_ms));
  }
  obs::RequestTrace* trace = pending.trace.get();
  const auto start = std::chrono::steady_clock::now();
  if (trace != nullptr) {
    // The two waiting stages, then the compute stage opened below;
    // together with the residual they tile the request end to end.
    trace->AddInterval("queue_wait", pending.admitted, pending.dequeued);
    trace->AddInterval("batch_wait", pending.dequeued, start);
  }
  ExpandResult result;
  if (pending.has_deadline && start >= pending.deadline) {
    // Expired deadlines complete without executing.
    Metrics().timeout.Increment();
    result.status =
        Status::DeadlineExceeded("deadline expired before execution");
  } else {
    // Bind the trace to this lane so every UW_SPAN the expander opens
    // (retrieval, rerank, beam rounds, ...) records into it. Expand is
    // logically const, and nested ParallelFor calls run inline on a pool
    // lane, so the whole expansion stays on this thread and its ranking
    // is independent of what the other lanes run and of thread count.
    obs::ScopedRequestBinding binding(trace);
    const int handle = trace != nullptr ? trace->BeginSpan("execute") : -1;
    // Thread the request deadline into the expander so anytime methods
    // (GenExpan) degrade to best-so-far instead of blowing the tail;
    // budget-blind methods ignore it.
    ExpandBudget expand_budget;
    if (pending.has_deadline) expand_budget.deadline = pending.deadline;
    ExpandOutcome outcome = expander.ExpandWithBudget(
        pending.request.query, static_cast<size_t>(pending.request.k),
        expand_budget);
    if (trace != nullptr) trace->EndSpan(handle);
    result.status = Status::Ok();
    result.ranking = std::move(outcome.ranking);
    result.degraded = outcome.degraded;
    if (result.degraded) Metrics().degraded.Increment();
    Metrics().completed.Increment();
  }
  const auto end = std::chrono::steady_clock::now();
  const int64_t latency =
      std::chrono::duration_cast<std::chrono::microseconds>(end -
                                                            pending.admitted)
          .count();
  Metrics().latency_us.Observe(latency);
  Metrics().latency_us_1m.Observe(latency);
  // Publish the trace before resolving the future so a client that
  // observes completion also observes its slow-log entry.
  FinishTrace(pending, end);
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  pending.promise.set_value(std::move(result));
}

}  // namespace serve
}  // namespace ultrawiki
