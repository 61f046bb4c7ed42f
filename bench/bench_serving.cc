// Load generator for the online expansion service (src/serve/): four
// phases over one resident pipeline.
//
//   1. Closed loop — N client connections over loopback TCP, each
//      fire-and-wait, mixing retexpan and setexpan across the dataset's
//      queries (>= 1000 requests total).
//   2. Open loop — in-process requests at a fixed arrival rate, each on a
//      thread of its own, so queue pressure comes from the clock instead
//      of client round trips.
//   3. Forced overload — a separate service with a 4-deep queue and a
//      synthetic per-request delay; the burst must shed, and every
//      accepted result must stay bit-identical to the offline expander.
//   4. Sharded cluster — two shards behind a ClusterRouter (shard 0
//      replicated), mixed-method load with a replica killed mid-run;
//      zero client-visible failures and bit-identical rankings.
//
// Latency percentiles (p50/p90/p95/p99 of serve.latency_us) and the
// serve.bench.* throughput gauges land in the UW_BENCH_JSON snapshot via
// BenchTimer. Stdout carries only the deterministic request/verdict
// summary; measured rates go to stderr and the snapshot.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.h"

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/service.h"

namespace ultrawiki {
namespace {

using serve::ExpandRequest;
using serve::ExpandResult;
using serve::ExpansionService;
using serve::ServeClient;
using serve::ServeConfig;
using serve::TcpServer;

constexpr int kK = 20;
const std::vector<std::string> kMethods = {"retexpan", "setexpan"};

/// Offline ground truth for the first few query indices of each method;
/// served rankings are checked against these bit for bit.
struct ReferenceSet {
  size_t verify_count = 0;
  // rankings[method_index][query_index]
  std::vector<std::vector<std::vector<EntityId>>> rankings;
};

ReferenceSet BuildReference(Pipeline& pipeline) {
  ReferenceSet reference;
  const size_t queries = pipeline.dataset().queries.size();
  reference.verify_count = queries < 4 ? queries : 4;
  for (const std::string& method : kMethods) {
    auto expander = serve::MakeExpanderByName(pipeline, method);
    UW_CHECK(expander != nullptr);
    std::vector<std::vector<EntityId>> per_query;
    for (size_t q = 0; q < reference.verify_count; ++q) {
      per_query.push_back(
          expander->Expand(pipeline.dataset().queries[q], kK));
    }
    reference.rankings.push_back(std::move(per_query));
  }
  return reference;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Phase 1: closed-loop TCP clients. Returns the mismatch count (0 on a
/// healthy run).
int RunClosedLoop(Pipeline& pipeline, const ReferenceSet& reference) {
  ExpansionService service(pipeline);
  UW_CHECK_OK(service.PrewarmMethods(kMethods));
  TcpServer server(service);
  UW_CHECK_OK(server.Start(/*port=*/0));

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 128;  // 1024 total, both methods
  const size_t query_count = pipeline.dataset().queries.size();
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = ServeClient::Connect("127.0.0.1", server.port());
      UW_CHECK_OK(client.status());
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const size_t method_index = (c + i) % kMethods.size();
        const uint32_t query_index =
            static_cast<uint32_t>((c * kRequestsPerClient + i) %
                                  query_count);
        const auto ranking = client->ExpandByIndex(
            kMethods[method_index], query_index, kK);
        if (!ranking.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (query_index < reference.verify_count &&
            *ranking != reference.rankings[method_index][query_index]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : clients) thread.join();
  const double seconds = SecondsSince(start);

  server.Shutdown();
  UW_CHECK_EQ(failures.load(), 0);
  UW_CHECK_EQ(server.protocol_errors(), 0);

  const int total = kClients * kRequestsPerClient;
  const int64_t qps =
      seconds > 0 ? static_cast<int64_t>(total / seconds) : 0;
  obs::GetGauge("serve.bench.closed.requests").Set(total);
  obs::GetGauge("serve.bench.closed.qps").Set(qps);
  std::fprintf(stderr,
               "[serving] closed loop: %d requests over %d connections in "
               "%.2fs (%lld qps)\n",
               total, kClients, seconds, static_cast<long long>(qps));
  std::printf("closed loop: %d requests across %zu methods, %d verified "
              "mismatches\n",
              total, kMethods.size(), mismatches.load());
  return mismatches.load();
}

/// Serves `request` on a thread of its own, as a TCP connection handler
/// would.
std::future<ExpandResult> ExpandOnThread(ExpansionService& service,
                                         ExpandRequest request) {
  return std::async(std::launch::async,
                    [&service, request = std::move(request)]() mutable {
                      return service.Expand(std::move(request));
                    });
}

/// Phase 2: open-loop in-process arrivals at a fixed rate.
int RunOpenLoop(Pipeline& pipeline, const ReferenceSet& reference) {
  ExpansionService service(pipeline);
  UW_CHECK_OK(service.PrewarmMethods(kMethods));

  constexpr int kRequests = 512;
  constexpr auto kArrivalGap = std::chrono::microseconds(500);  // 2000/s
  const size_t query_count = pipeline.dataset().queries.size();

  std::vector<std::future<ExpandResult>> futures;
  std::vector<std::pair<size_t, size_t>> labels;  // (method, query) index
  futures.reserve(kRequests);
  const auto start = std::chrono::steady_clock::now();
  auto next_arrival = start;
  for (int i = 0; i < kRequests; ++i) {
    std::this_thread::sleep_until(next_arrival);
    next_arrival += kArrivalGap;
    const size_t method_index = i % kMethods.size();
    const size_t query_index = static_cast<size_t>(i) % query_count;
    labels.emplace_back(method_index, query_index);
    futures.push_back(ExpandOnThread(
        service, {kMethods[method_index],
                  pipeline.dataset().queries[query_index], kK, -1}));
  }

  int ok = 0;
  int shed = 0;
  int mismatches = 0;
  for (int i = 0; i < kRequests; ++i) {
    ExpandResult result = futures[static_cast<size_t>(i)].get();
    if (!result.status.ok()) {
      UW_CHECK_EQ(static_cast<int>(result.status.code()),
                  static_cast<int>(StatusCode::kUnavailable));
      ++shed;
      continue;
    }
    ++ok;
    const auto [method_index, query_index] =
        labels[static_cast<size_t>(i)];
    if (query_index < reference.verify_count &&
        result.ranking != reference.rankings[method_index][query_index]) {
      ++mismatches;
    }
  }
  const double seconds = SecondsSince(start);
  service.Drain();

  obs::GetGauge("serve.bench.open.requests").Set(kRequests);
  obs::GetGauge("serve.bench.open.ok").Set(ok);
  obs::GetGauge("serve.bench.open.shed").Set(shed);
  obs::GetGauge("serve.bench.open.qps")
      .Set(seconds > 0 ? static_cast<int64_t>(kRequests / seconds) : 0);
  std::fprintf(stderr,
               "[serving] open loop: %d arrivals at one per %lldus in "
               "%.2fs (%d ok, %d shed)\n",
               kRequests, static_cast<long long>(kArrivalGap.count()),
               seconds, ok, shed);
  std::printf("open loop: %d paced arrivals, %d verified mismatches "
              "among accepted results\n",
              kRequests, mismatches);
  return mismatches;
}

/// Phase 3: forced overload. Returns the mismatch count among accepted
/// results; aborts if nothing was shed (the phase would be vacuous).
int RunOverload(Pipeline& pipeline, const ReferenceSet& reference) {
  // Two slots on any host, so at most 2 + 4 of the burst are admitted
  // before the first 10 ms stall ends; the pool is restored afterwards.
  const int threads = ThreadPool::Global().thread_count();
  UW_CHECK_OK(ThreadPool::SetGlobalThreadCount(2));
  ServeConfig config;
  config.max_queue = 4;
  config.synthetic_delay_ms = 10;  // drain far slower than the burst
  ExpansionService service(pipeline, config);
  UW_CHECK_OK(service.PrewarmMethods({kMethods[1]}));

  constexpr int kBurst = 64;
  std::vector<std::future<ExpandResult>> futures;
  futures.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(ExpandOnThread(
        service, {kMethods[1], pipeline.dataset().queries[0], kK, -1}));
  }
  int served = 0;
  int shed = 0;
  int mismatches = 0;
  for (auto& future : futures) {
    ExpandResult result = future.get();
    if (result.status.ok()) {
      ++served;
      if (result.ranking != reference.rankings[1][0]) ++mismatches;
    } else {
      ++shed;
    }
  }
  service.Drain();
  UW_CHECK_OK(ThreadPool::SetGlobalThreadCount(threads));
  UW_CHECK_GT(shed, 0);
  UW_CHECK_GT(served, 0);

  obs::GetGauge("serve.bench.overload.served").Set(served);
  obs::GetGauge("serve.bench.overload.shed").Set(shed);
  std::fprintf(stderr,
               "[serving] overload: burst of %d into a %d-deep queue -> "
               "%d served, %d shed\n",
               kBurst, config.max_queue, served, shed);
  std::printf("overload: shedding engaged on a burst of %d, %d verified "
              "mismatches among accepted results\n",
              kBurst, mismatches);
  return mismatches;
}

/// Phase 4: the sharded scatter-gather cluster under load, with a
/// replica killed mid-run. Two shards (shard 0 replicated twice), a
/// ClusterRouter fronted by its own TcpServer, closed-loop clients
/// mixing both methods; halfway through, one replica of shard 0 is shut
/// down hard. Every request must still succeed (failover, not errors)
/// and every verified ranking must stay bit-identical to the offline
/// expanders. Returns the mismatch count.
int RunCluster(Pipeline& pipeline, const ReferenceSet& reference) {
  constexpr int kShards = 2;
  struct ShardReplica {
    std::unique_ptr<ExpansionService> service;
    std::unique_ptr<TcpServer> server;
  };
  // Replicas 0 and 1 serve shard 0; replica 2 serves shard 1.
  std::vector<ShardReplica> replicas;
  serve::RouterConfig topology;
  topology.shard_count = kShards;
  topology.health_poll_ms = 50;
  for (const int shard : {0, 0, 1}) {
    ShardReplica replica;
    replica.service = std::make_unique<ExpansionService>(pipeline);
    UW_CHECK_OK(replica.service->EnableSharding({shard, kShards}));
    UW_CHECK_OK(replica.service->PrewarmMethods(kMethods));
    replica.server = std::make_unique<TcpServer>(*replica.service);
    UW_CHECK_OK(replica.server->Start(/*port=*/0));
    serve::ReplicaEndpoint endpoint;
    endpoint.shard = shard;
    endpoint.port = replica.server->port();
    topology.replicas.push_back(endpoint);
    replicas.push_back(std::move(replica));
  }
  serve::ClusterRouter router(std::move(topology));
  UW_CHECK_OK(router.Start());
  TcpServer front(router);
  UW_CHECK_OK(front.Start(/*port=*/0));

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 64;
  const size_t query_count = pipeline.dataset().queries.size();
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::atomic<int> completed{0};

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = ServeClient::Connect("127.0.0.1", front.port());
      UW_CHECK_OK(client.status());
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const size_t method_index = (c + i) % kMethods.size();
        const uint32_t query_index = static_cast<uint32_t>(
            (c * kRequestsPerClient + i) % query_count);
        const auto ranking = client->ExpandByIndex(
            kMethods[method_index], query_index, kK);
        completed.fetch_add(1, std::memory_order_relaxed);
        if (!ranking.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (query_index < reference.verify_count &&
            *ranking != reference.rankings[method_index][query_index]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Kill one replica of the replicated shard once the load is flowing;
  // the router must absorb it as failover retries, not client errors.
  constexpr int kTotal = kClients * kRequestsPerClient;
  while (completed.load(std::memory_order_relaxed) < kTotal / 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  replicas[0].server->Shutdown();
  for (auto& thread : clients) thread.join();
  const double seconds = SecondsSince(start);

  front.Shutdown();
  router.Drain();
  for (size_t r = 1; r < replicas.size(); ++r) {
    replicas[r].server->Shutdown();
  }
  UW_CHECK_EQ(failures.load(), 0);
  UW_CHECK_EQ(front.protocol_errors(), 0);

  const int64_t qps =
      seconds > 0 ? static_cast<int64_t>(kTotal / seconds) : 0;
  obs::GetGauge("serve.bench.cluster.requests").Set(kTotal);
  obs::GetGauge("serve.bench.cluster.qps").Set(qps);
  obs::GetGauge("serve.bench.cluster.failovers")
      .Set(obs::GetCounter("router.failovers").Value());
  std::fprintf(stderr,
               "[serving] cluster: %d requests over %d connections "
               "through a %d-shard router in %.2fs (%lld qps), replica "
               "killed mid-run, %lld failovers\n",
               kTotal, kClients, kShards, seconds,
               static_cast<long long>(qps),
               static_cast<long long>(
                   obs::GetCounter("router.failovers").Value()));
  std::printf("cluster: %d requests through %d shards with a mid-run "
              "replica kill, %d verified mismatches\n",
              kTotal, kShards, mismatches.load());
  return mismatches.load();
}

int Run() {
  Pipeline pipeline = Pipeline::Build(BenchPipelineConfig());
  const ReferenceSet reference = BuildReference(pipeline);

  int mismatches = 0;
  mismatches += RunClosedLoop(pipeline, reference);
  mismatches += RunOpenLoop(pipeline, reference);
  mismatches += RunOverload(pipeline, reference);
  mismatches += RunCluster(pipeline, reference);
  std::printf("serving bench verdict: %s\n",
              mismatches == 0 ? "all verified rankings bit-identical"
                              : "RANKING MISMATCH");
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ultrawiki

int main() {
  ultrawiki::BenchTimer timer("serving");
  return ultrawiki::Run();
}
