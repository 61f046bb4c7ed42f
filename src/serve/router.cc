#include "serve/router.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "common/env.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "math/topk.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ultrawiki {
namespace serve {
namespace {

struct RouterMetrics {
  obs::Counter& expands = obs::GetCounter("router.expands");
  obs::Counter& rejected = obs::GetCounter("router.rejected");
  obs::Counter& scatter_expands = obs::GetCounter("router.scatter_expands");
  obs::Counter& proxied = obs::GetCounter("router.proxied");
  obs::Counter& failovers = obs::GetCounter("router.failovers");
  obs::Counter& lookups = obs::GetCounter("router.lookups");
  obs::Counter& lookup_cache_hits =
      obs::GetCounter("router.lookup_cache_hits");
  obs::Counter& health_polls = obs::GetCounter("router.health_polls");
  obs::Counter& health_errors = obs::GetCounter("router.health_errors");
  obs::Gauge& replicas_reachable =
      obs::GetGauge("router.replicas_reachable");
};

RouterMetrics& Metrics() {
  static RouterMetrics* metrics = new RouterMetrics();
  return *metrics;
}

}  // namespace

StatusOr<RouterConfig> RouterConfig::ParseTopology(
    const std::string& topology) {
  RouterConfig config;
  for (const std::string& entry : SplitString(topology, ',')) {
    // "shard@host:port[/admin_port]"; the admin port is never dialed.
    const size_t at = entry.find('@');
    const size_t colon = entry.rfind(':');
    if (at == std::string::npos || colon == std::string::npos ||
        colon < at) {
      return Status::InvalidArgument("bad replica spec: " + entry);
    }
    ReplicaEndpoint endpoint;
    const std::optional<int> shard = ParseIntStrict(entry.substr(0, at));
    if (!shard.has_value() || *shard < 0) {
      return Status::InvalidArgument("bad shard index in: " + entry);
    }
    endpoint.shard = *shard;
    endpoint.host = entry.substr(at + 1, colon - at - 1);
    if (endpoint.host.empty()) {
      return Status::InvalidArgument("empty host in: " + entry);
    }
    const size_t slash = entry.find('/', colon);
    if (slash != std::string::npos) {
      const std::optional<int> admin = ParsePortStrict(entry.substr(slash + 1));
      if (!admin.has_value() || *admin <= 0) {
        return Status::InvalidArgument("bad admin port in: " + entry);
      }
      endpoint.admin_port = *admin;
    }
    const std::optional<int> port =
        ParsePortStrict(entry.substr(colon + 1, slash - colon - 1));
    if (!port.has_value() || *port <= 0) {
      return Status::InvalidArgument("bad port in: " + entry);
    }
    endpoint.port = *port;
    config.shard_count = std::max(config.shard_count, endpoint.shard + 1);
    config.replicas.push_back(std::move(endpoint));
  }
  if (config.replicas.empty()) {
    return Status::InvalidArgument("empty topology");
  }
  return config;
}

ClusterRouter::ClusterRouter(RouterConfig config)
    : config_(std::move(config)) {
  Metrics();
}

ClusterRouter::~ClusterRouter() { Drain(); }

Status ClusterRouter::Start() {
  UW_CHECK(!started_) << "Start called twice";
  started_ = true;
  if (config_.replicas.empty()) {
    return Status::InvalidArgument("router has no replicas");
  }
  int max_shard = 0;
  for (const ReplicaEndpoint& endpoint : config_.replicas) {
    if (endpoint.shard < 0) {
      return Status::InvalidArgument("negative shard index");
    }
    max_shard = std::max(max_shard, endpoint.shard);
  }
  if (config_.shard_count == 0) config_.shard_count = max_shard + 1;
  if (max_shard >= config_.shard_count) {
    return Status::InvalidArgument("replica shard index exceeds shard_count");
  }
  shard_replicas_.assign(static_cast<size_t>(config_.shard_count), {});
  for (size_t i = 0; i < config_.replicas.size(); ++i) {
    auto replica = std::make_unique<Replica>();
    replica->endpoint = config_.replicas[i];
    shard_replicas_[static_cast<size_t>(replica->endpoint.shard)].push_back(
        i);
    replicas_.push_back(std::move(replica));
  }
  for (int shard = 0; shard < config_.shard_count; ++shard) {
    if (shard_replicas_[static_cast<size_t>(shard)].empty()) {
      return Status::InvalidArgument("shard " + std::to_string(shard) +
                                     " has no replicas");
    }
  }
  PollHealthNow();
  if (config_.health_poll_ms > 0) {
    health_thread_ = std::thread([this] { HealthLoop(); });
  }
  return Status::Ok();
}

ClusterRouter::ReplicaState ClusterRouter::replica_state(
    size_t replica_index) const {
  UW_CHECK_LT(replica_index, replicas_.size());
  const Replica& replica = *replicas_[replica_index];
  ReplicaState state;
  state.reachable = replica.reachable.load(std::memory_order_relaxed);
  state.draining = replica.draining.load(std::memory_order_relaxed);
  state.load = replica.load.load(std::memory_order_relaxed);
  state.generation = replica.generation.load(std::memory_order_relaxed);
  return state;
}

StatusOr<HealthReport> ClusterRouter::CallHealth(Replica& replica) {
  if (!replica.health.connected()) {
    StatusOr<ServeClient> client =
        ServeClient::Connect(replica.endpoint.host, replica.endpoint.port,
                             config_.health_timeout_ms);
    if (!client.ok()) return client.status();
    replica.health = std::move(*client);
  }
  return replica.health.Health();
}

void ClusterRouter::PollReplica(Replica& replica) {
  Metrics().health_polls.Increment();
  std::lock_guard<std::mutex> lock(replica.health_mutex);
  const bool reused = replica.health.connected();
  StatusOr<HealthReport> health = CallHealth(replica);
  // A kept connection may have gone stale (say, the replica restarted on
  // its port); that alone does not make the replica unreachable, so a
  // transport failure on it earns one fresh dial.
  if (!health.ok() && reused && !replica.health.connected()) {
    health = CallHealth(replica);
  }
  if (!health.ok()) {
    Metrics().health_errors.Increment();
    replica.reachable.store(false, std::memory_order_relaxed);
    return;
  }
  replica.reachable.store(true, std::memory_order_relaxed);
  replica.draining.store(health->draining, std::memory_order_relaxed);
  replica.load.store(static_cast<int>(health->queue_depth + health->inflight),
                     std::memory_order_relaxed);
  replica.generation.store(health->generation, std::memory_order_relaxed);
}

void ClusterRouter::PollHealthNow() {
  int reachable = 0;
  for (const std::unique_ptr<Replica>& replica : replicas_) {
    PollReplica(*replica);
    if (replica->reachable.load(std::memory_order_relaxed)) ++reachable;
  }
  Metrics().replicas_reachable.Set(reachable);
}

void ClusterRouter::HealthLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> lock(health_mutex_);
      health_cv_.wait_for(
          lock, std::chrono::milliseconds(config_.health_poll_ms),
          [this] { return stopping_.load(std::memory_order_acquire); });
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    PollHealthNow();
  }
}

StatusOr<ServeClient> ClusterRouter::AcquireClient(Replica& replica) {
  {
    std::lock_guard<std::mutex> lock(replica.pool_mutex);
    if (!replica.pool.empty()) {
      ServeClient client = std::move(replica.pool.back());
      replica.pool.pop_back();
      return client;
    }
  }
  return ServeClient::Connect(replica.endpoint.host, replica.endpoint.port);
}

void ClusterRouter::ReleaseClient(Replica& replica, ServeClient client) {
  if (!client.connected() || stopping_.load(std::memory_order_acquire)) {
    return;  // dropped; destructor closes
  }
  std::lock_guard<std::mutex> lock(replica.pool_mutex);
  replica.pool.push_back(std::move(client));
}

std::vector<size_t> ClusterRouter::ReplicaOrder(int shard) const {
  std::vector<size_t> all;
  if (shard < 0) {
    all.resize(replicas_.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  } else {
    UW_CHECK_LT(static_cast<size_t>(shard), shard_replicas_.size());
    all = shard_replicas_[static_cast<size_t>(shard)];
  }
  // Healthy (reachable, not draining) replicas by ascending load — the
  // backpressure signal of the health poll — with config order as the
  // tie-break; then the unhealthy rest in config order as last-resort
  // probes (the poll may be stale; a "dead" replica that answers is
  // better than an error).
  std::vector<size_t> healthy;
  std::vector<size_t> rest;
  for (const size_t index : all) {
    const Replica& replica = *replicas_[index];
    if (replica.reachable.load(std::memory_order_relaxed) &&
        !replica.draining.load(std::memory_order_relaxed)) {
      healthy.push_back(index);
    } else {
      rest.push_back(index);
    }
  }
  std::stable_sort(healthy.begin(), healthy.end(),
                   [this](size_t a, size_t b) {
                     return replicas_[a]->load.load(
                                std::memory_order_relaxed) <
                            replicas_[b]->load.load(
                                std::memory_order_relaxed);
                   });
  healthy.insert(healthy.end(), rest.begin(), rest.end());
  return healthy;
}

bool ClusterRouter::Retryable(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kInternal:
    case StatusCode::kFailedPrecondition:
      return true;
    default:
      return false;
  }
}

template <typename Result>
StatusOr<Result> ClusterRouter::CallWithFailover(
    int shard, const std::function<StatusOr<Result>(ServeClient&)>& call) {
  Status last = Status::Unavailable(
      shard < 0 ? std::string("no replicas configured")
                : "no replicas configured for shard " +
                      std::to_string(shard));
  bool first = true;
  for (const size_t index : ReplicaOrder(shard)) {
    Replica& replica = *replicas_[index];
    if (!first) Metrics().failovers.Increment();
    first = false;
    StatusOr<ServeClient> client = AcquireClient(replica);
    if (!client.ok()) {
      replica.reachable.store(false, std::memory_order_relaxed);
      last = client.status();
      continue;
    }
    StatusOr<Result> result = call(*client);
    if (result.ok()) {
      replica.reachable.store(true, std::memory_order_relaxed);
      replica.draining.store(false, std::memory_order_relaxed);
      ReleaseClient(replica, std::move(*client));
      return result;
    }
    const Status& status = result.status();
    if (!Retryable(status)) {
      // A well-formed application error (bad index, bad argument):
      // deterministic across replicas, and the connection is intact.
      ReleaseClient(replica, std::move(*client));
      return status;
    }
    // The client closes on every failure but a well-formed reply status.
    // Still connected, the replica is up but refused the work (shed,
    // draining, no generation yet): keep the connection and demote it in
    // the health order. Closed, it was a transport fault: mark the
    // replica unreachable until a poll or a success revives it.
    if (client->connected()) {
      replica.draining.store(true, std::memory_order_relaxed);
      ReleaseClient(replica, std::move(*client));
    } else {
      replica.reachable.store(false, std::memory_order_relaxed);
    }
    last = status;
  }
  return last;
}

StatusOr<Query> ClusterRouter::QueryByIndex(uint32_t index) {
  Metrics().lookups.Increment();
  {
    std::lock_guard<std::mutex> lock(lookup_mutex_);
    auto it = lookup_cache_.find(index);
    if (it != lookup_cache_.end()) {
      Metrics().lookup_cache_hits.Increment();
      return it->second;
    }
  }
  StatusOr<Query> query = CallWithFailover<Query>(
      -1, [&](ServeClient& client) { return client.QueryLookup(index); });
  if (query.ok()) {
    std::lock_guard<std::mutex> lock(lookup_mutex_);
    lookup_cache_.emplace(index, *query);
  }
  return query;
}

ExpandResult ClusterRouter::Expand(ExpandRequest request) {
  if (Status invalid = ValidateRequest(request); !invalid.ok()) {
    Metrics().rejected.Increment();
    return ExpandResult{std::move(invalid), {}};
  }
  Metrics().expands.Increment();
  if (request.method == "retexpan") return ScatterExpand(request);
  return ProxyExpand(request);
}

ExpandResult ClusterRouter::ScatterExpand(const ExpandRequest& request) {
  Metrics().scatter_expands.Increment();
  UW_SPAN("router.scatter_expand");
  const auto recall = [&](size_t size)
      -> StatusOr<std::vector<RecalledEntity>> {
    // One thread per shard, each failing over across its own replicas.
    const size_t shards = static_cast<size_t>(config_.shard_count);
    std::vector<StatusOr<std::vector<RecalledEntity>>> per_shard(
        shards, Status::Unavailable("shard not queried"));
    std::vector<std::thread> workers;
    for (size_t shard = 0; shard < shards; ++shard) {
      workers.emplace_back([&, shard] {
        per_shard[shard] = CallWithFailover<std::vector<RecalledEntity>>(
            static_cast<int>(shard), [&](ServeClient& client) {
              return client.ScatterRetrieve(request.query, size);
            });
      });
    }
    for (std::thread& worker : workers) worker.join();
    // The global top `size` is within the union of the per-shard tops, so
    // the union's first `size` by RanksBefore on (score, global position)
    // is the unsharded recall bit for bit. A missing shard, or a position
    // of another slice (a replica listed under the wrong shard), fails.
    std::vector<RecalledEntity> merged;
    for (size_t shard = 0; shard < shards; ++shard) {
      if (!per_shard[shard].ok()) return per_shard[shard].status();
      for (const RecalledEntity& entity : *per_shard[shard]) {
        if (entity.position % shards == shard) continue;
        return Status::FailedPrecondition(
            "replica listed as shard " + std::to_string(shard) +
            " answered position " + std::to_string(entity.position));
      }
      merged.insert(merged.end(), per_shard[shard]->begin(),
                    per_shard[shard]->end());
    }
    std::sort(merged.begin(), merged.end(),
              [](const RecalledEntity& a, const RecalledEntity& b) {
                return RanksBefore({a.score, static_cast<size_t>(a.position)},
                                   {b.score, static_cast<size_t>(b.position)});
              });
    if (merged.size() > size) merged.resize(size);
    return merged;
  };
  // Every replica holds the full store, so one call to the least-loaded
  // replica scores the negative side of the whole merged list.
  const auto neg_scores = [&](const std::vector<EntityId>& list) {
    return CallWithFailover<std::vector<float>>(
        -1, [&](ServeClient& client) {
          return client.ScatterScore(request.query, list);
        });
  };
  StatusOr<std::vector<EntityId>> ranking = RetExpanRank(
      config_.retexpan, request.query, static_cast<size_t>(request.k),
      recall, neg_scores);
  if (!ranking.ok()) return ExpandResult{ranking.status(), {}};
  return ExpandResult{Status::Ok(), std::move(*ranking)};
}

ExpandResult ClusterRouter::ProxyExpand(const ExpandRequest& request) {
  Metrics().proxied.Increment();
  UW_SPAN("router.proxy_expand");
  // Non-retexpan methods need substrates (LM, distributions, graph) that
  // are not sharded — every shard process holds the full pipeline, so the
  // whole request goes to the globally least-loaded replica. A shed
  // (kUnavailable) answer fails over to the next replica, which is the
  // load-balancing behavior a fleet wants from a front door.
  StatusOr<std::vector<EntityId>> ranking =
      CallWithFailover<std::vector<EntityId>>(
          -1, [&](ServeClient& client) {
            return client.ExpandQuery(
                request.method, request.query, request.k,
                request.timeout_ms > 0 ? request.timeout_ms : 0);
          });
  if (!ranking.ok()) return ExpandResult{ranking.status(), {}};
  return ExpandResult{Status::Ok(), std::move(*ranking)};
}

void ClusterRouter::Drain() {
  std::call_once(drain_once_, [this] {
    stopping_.store(true, std::memory_order_release);
    health_cv_.notify_all();
    if (health_thread_.joinable()) health_thread_.join();
    for (const std::unique_ptr<Replica>& replica : replicas_) {
      std::lock_guard<std::mutex> lock(replica->pool_mutex);
      replica->pool.clear();  // destructors close the sockets
    }
    for (const std::unique_ptr<Replica>& replica : replicas_) {
      std::lock_guard<std::mutex> lock(replica->health_mutex);
      replica->health.Close();
    }
  });
}

}  // namespace serve
}  // namespace ultrawiki
