// Tests for the sharded serving cluster and the hardened connection
// lifecycle underneath it: strict env parsing, topology parsing,
// TcpListener bookkeeping under churn and fd
// exhaustion, the published-traces-only `serve.traced` counter, shard
// scatter-gather bit-identity against the single-process rankings,
// a replica listed under the wrong shard never merged, router failover
// when a replica dies, the router's Health poll (draining,
// load order, stopped replicas, generations), and the ServiceHost hot swap
// shedding nothing under load.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/service_host.h"

namespace ultrawiki {
namespace serve {
namespace {

/// One Tiny pipeline per test process (the usual expensive-fixture
/// pattern of this suite; see tests/CMakeLists.txt).
Pipeline& TestPipeline() {
  static Pipeline* pipeline = [] {
    PipelineConfig config = PipelineConfig::Tiny();
    config.generator.scale = 0.08;
    config.dataset.ultra_class_scale = 0.08;
    return new Pipeline(Pipeline::Build(config));
  }();
  return *pipeline;
}

std::vector<EntityId> Reference(const std::string& method,
                                const Query& query, int k) {
  auto expander = MakeExpanderByName(TestPipeline(), method);
  UW_CHECK(expander != nullptr);
  return expander->Expand(query, static_cast<size_t>(k));
}

/// A query guaranteed to exercise the negative-seed rerank phase: the
/// dataset's first query, with neg seeds borrowed from the second
/// query's pos seeds if it has none of its own.
Query QueryWithNegSeeds() {
  const auto& queries = TestPipeline().dataset().queries;
  UW_CHECK_GE(queries.size(), 2u);
  Query query = queries[0];
  if (query.neg_seeds.empty()) query.neg_seeds = queries[1].pos_seeds;
  return query;
}

/// A query whose three positive and three negative seeds are one
/// ultra-class's positive and negative targets that seed no dataset
/// query, so no process could have prepared for them.
Query TargetSeededQuery() {
  const UltraWikiDataset& dataset = TestPipeline().dataset();
  std::set<EntityId> dataset_seeds;
  for (const Query& query : dataset.queries) {
    dataset_seeds.insert(query.pos_seeds.begin(), query.pos_seeds.end());
    dataset_seeds.insert(query.neg_seeds.begin(), query.neg_seeds.end());
  }
  const auto unused = [&dataset_seeds](const std::vector<EntityId>& targets) {
    std::vector<EntityId> seeds;
    for (const EntityId id : targets) {
      if (seeds.size() < 3 && dataset_seeds.count(id) == 0) {
        seeds.push_back(id);
      }
    }
    return seeds;
  };
  for (size_t c = 0; c < dataset.classes.size(); ++c) {
    Query query;
    query.ultra_class = static_cast<int>(c);
    query.pos_seeds = unused(dataset.classes[c].positive_targets);
    query.neg_seeds = unused(dataset.classes[c].negative_targets);
    if (query.pos_seeds.size() == 3 && query.neg_seeds.size() == 3) {
      return query;
    }
  }
  UW_CHECK(false) << "no ultra-class has three unused targets of each kind";
  return {};
}

// --------------------------------------------------- Topology parsing.

TEST(RouterTopologyTest, ParsesRepicatedMultiShardTopology) {
  const StatusOr<RouterConfig> parsed = RouterConfig::ParseTopology(
      "0@127.0.0.1:5000/5001,0@10.0.0.2:5002,1@127.0.0.1:5004/5005");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->shard_count, 2);
  ASSERT_EQ(parsed->replicas.size(), 3u);
  EXPECT_EQ(parsed->replicas[0].shard, 0);
  EXPECT_EQ(parsed->replicas[0].host, "127.0.0.1");
  EXPECT_EQ(parsed->replicas[0].port, 5000);
  EXPECT_EQ(parsed->replicas[0].admin_port, 5001);
  EXPECT_EQ(parsed->replicas[1].host, "10.0.0.2");
  EXPECT_EQ(parsed->replicas[1].admin_port, 0);  // no scrape endpoint
  EXPECT_EQ(parsed->replicas[2].shard, 1);
}

TEST(RouterTopologyTest, MalformedTopologiesAreRejected) {
  for (const char* bad : {
           "",                     // empty
           "0@127.0.0.1",          // no port
           "x@127.0.0.1:5000",     // non-integer shard
           "0@:5000",              // empty host
           "0@127.0.0.1:64k",      // the atoi trap, on the wire format
           "0@127.0.0.1:5000/zz",  // bad admin port
           "0@127.0.0.1:70000",    // past the port range
           "@127.0.0.1:5000",      // empty shard
       }) {
    const StatusOr<RouterConfig> parsed = RouterConfig::ParseTopology(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: \"" << bad << "\"";
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

// ------------------------------------- Connection lifecycle (TcpListener).

TEST(TcpLifecycleTest, ConnectionChurnKeepsFdAndThreadBookkeepingBounded) {
  ExpansionService service(TestPipeline(), ServeConfig{});
  TcpServer server(service);
  ASSERT_TRUE(server.Start(0).ok());

  // Dozens of short-lived sessions: each connects, polls health,
  // disconnects.
  // The old implementation leaked one fd-registry entry and one
  // un-joined thread per session; the listener must keep both bounded.
  constexpr int kChurn = 40;
  for (int i = 0; i < kChurn; ++i) {
    auto client = ServeClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE(client->Health().ok()) << "session " << i;
    client->Close();
  }
  EXPECT_EQ(server.connections_accepted(), kChurn);

  // Handlers notice the close asynchronously; wait for the registry to
  // empty, then reap and assert nothing is left tracked.
  for (int spin = 0; spin < 500 && server.listener().open_connections() > 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.listener().open_connections(), 0);
  server.listener().ReapFinishedHandlers();
  EXPECT_EQ(server.listener().tracked_handler_threads(), 0);

  // The server is still fully alive after the churn.
  auto survivor = ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(survivor.ok()) << survivor.status();
  EXPECT_TRUE(survivor->Health().ok());
  survivor->Close();
  server.Shutdown();
  EXPECT_EQ(server.protocol_errors(), 0);
}

int MaxOpenFd() {
  int max_fd = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  UW_CHECK(dir != nullptr);
  while (dirent* entry = ::readdir(dir)) {
    const std::optional<int> fd = ParseIntStrict(entry->d_name);
    if (fd.has_value()) max_fd = std::max(max_fd, *fd);
  }
  ::closedir(dir);
  return max_fd;
}

TEST(TcpLifecycleTest, AcceptLoopSurvivesFdExhaustion) {
  ExpansionService service(TestPipeline(), ServeConfig{});
  TcpServer server(service);
  ASSERT_TRUE(server.Start(0).ok());
  const int64_t errors_before = server.accept_errors();

  // The client's socket exists before the squeeze — connecting needs no
  // new fd, only accepting does.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);

  // Log once before the squeeze. Under UBSan the first vptr check of a
  // type needs a fresh fd; if the accept loop's EMFILE warning were the
  // process's first log line, that check would fail and report a false
  // "invalid vptr" on the log stream.
  UW_LOG(Info) << "exhausting the fd table";

  // Exhaust the fd table: clamp the limit just above the highest live
  // fd, then fill every hole below it, so the server-side accept() of
  // the probe's connection must fail with EMFILE.
  rlimit original{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &original), 0);
  rlimit tight = original;
  tight.rlim_cur = static_cast<rlim_t>(MaxOpenFd() + 2);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::vector<int> fillers;
  for (int i = 0; i < 4096; ++i) {
    const int filler = ::open("/dev/null", O_RDONLY);
    if (filler < 0) break;
    fillers.push_back(filler);
  }

  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  // The TCP handshake completes in the kernel backlog even though the
  // server cannot accept yet.
  ASSERT_EQ(
      ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // The accept loop must register the failure and keep retrying — the
  // old loop exited here and the server was dead until restart.
  bool saw_error = false;
  for (int spin = 0; spin < 1000; ++spin) {
    if (server.accept_errors() > errors_before) {
      saw_error = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (const int filler : fillers) ::close(filler);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &original), 0);
  ::close(probe);
  EXPECT_TRUE(saw_error);

  // With fds available again the very same listener serves new clients.
  auto client = ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_TRUE(client->Health().ok());
  client->Close();
  server.Shutdown();
}

// ------------------------------------------------------ Traced counter.

TEST(ServeTracedCounterTest, CountsExactlyThePublishedTraces) {
  obs::SlowQueryLog::Global().ResetForTest();
  const Query query = TestPipeline().dataset().queries.at(0);

  // Sampled every request: each completed request publishes one trace.
  {
    ServeConfig config;
    config.trace_sample = 1;
    ExpansionService service(TestPipeline(), config);
    const int64_t traced_before = obs::GetCounter("serve.traced").Value();
    const int64_t recorded_before =
        obs::SlowQueryLog::Global().total_recorded();
    constexpr int kN = 5;
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(
          service.Expand({"setexpan", query, 10, -1}).status.ok());
    }
    EXPECT_EQ(obs::GetCounter("serve.traced").Value(), traced_before + kN);
    EXPECT_EQ(obs::SlowQueryLog::Global().total_recorded(),
              recorded_before + kN);
  }

  // Speculative traces (slow threshold armed, nothing actually slow, no
  // sampling) are allocated but never published — and never counted.
  // This was the overcount: the counter used to tick at admission.
  {
    ServeConfig config;
    config.slow_query_ms = 1000000;
    ExpansionService service(TestPipeline(), config);
    const int64_t traced_before = obs::GetCounter("serve.traced").Value();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          service.Expand({"setexpan", query, 10, -1}).status.ok());
    }
    EXPECT_EQ(obs::GetCounter("serve.traced").Value(), traced_before);
  }

  // Shed requests drop their speculative trace unrecorded: under a
  // sampled overload burst, traced must equal the served count, not the
  // submitted count.
  {
    // Two slots on any host, so at most 2 + 3 of the burst are admitted
    // before the first 10 ms stall ends.
    ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(2).ok());
    ServeConfig config;
    config.trace_sample = 1;
    config.max_queue = 3;
    config.synthetic_delay_ms = 10;
    ExpansionService service(TestPipeline(), config);
    const int64_t traced_before = obs::GetCounter("serve.traced").Value();
    constexpr int kBurst = 24;
    std::vector<ExpandResult> results(kBurst);
    std::vector<std::thread> burst;
    for (int i = 0; i < kBurst; ++i) {
      burst.emplace_back([&service, &query, &results, i] {
        results[i] = service.Expand({"setexpan", query, 10, -1});
      });
    }
    for (std::thread& thread : burst) thread.join();
    int served = 0;
    int shed = 0;
    for (const ExpandResult& result : results) {
      if (result.status.ok()) {
        ++served;
      } else {
        ++shed;
      }
    }
    ASSERT_GT(shed, 0) << "burst did not overload; tighten the config";
    EXPECT_EQ(obs::GetCounter("serve.traced").Value(),
              traced_before + served)
        << "served=" << served << " shed=" << shed;
    service.Drain();
    ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(0).ok());
  }
  obs::SlowQueryLog::Global().ResetForTest();
}

// ---------------------------------------------- Scatter-gather cluster.

/// One in-process shard replica: a sharded service and a TcpServer
/// exposing it.
struct ShardProcess {
  std::unique_ptr<ExpansionService> service;
  std::unique_ptr<TcpServer> server;

  static std::unique_ptr<ShardProcess> Start(const ShardSpec& spec,
                                             const ServeConfig& config = {}) {
    auto shard = std::make_unique<ShardProcess>();
    shard->service =
        std::make_unique<ExpansionService>(TestPipeline(), config);
    UW_CHECK(shard->service->EnableSharding(spec).ok());
    shard->server = std::make_unique<TcpServer>(*shard->service);
    UW_CHECK(shard->server->Start(0).ok());
    return shard;
  }
};

RouterConfig TopologyOf(const std::vector<std::unique_ptr<ShardProcess>>&
                            shards,
                        int shard_count) {
  RouterConfig config;
  config.shard_count = shard_count;
  config.health_poll_ms = 0;  // transport signals only; no poller thread
  for (size_t i = 0; i < shards.size(); ++i) {
    ReplicaEndpoint endpoint;
    endpoint.shard = static_cast<int>(i) % shard_count;
    endpoint.port = shards[i]->server->port();
    config.replicas.push_back(endpoint);
  }
  return config;
}

TEST(ClusterTest, ShardedScatterGatherBitIdenticalToSingleProcess) {
  const auto& queries = TestPipeline().dataset().queries;
  const Query neg_query = QueryWithNegSeeds();
  ASSERT_FALSE(neg_query.neg_seeds.empty());
  const Query target_query = TargetSeededQuery();
  // The inputs where the recall score and SeedCentroidScores take
  // different code paths: no positive seed (a zero centroid, against the
  // scores' empty-seed short-circuit), and a positive seed the store
  // lacks (its zero unit row, in the denominator of both).
  Query no_pos_query = neg_query;
  no_pos_query.pos_seeds.clear();
  Query absent_seed_query = neg_query;
  absent_seed_query.pos_seeds.push_back(
      static_cast<EntityId>(TestPipeline().store().slot_count()) + 7);
  ASSERT_FALSE(TestPipeline().store().Has(absent_seed_query.pos_seeds.back()));
  constexpr int kK = 25;

  for (int shard_count : {1, 2, 3}) {
    std::vector<std::unique_ptr<ShardProcess>> shards;
    for (int s = 0; s < shard_count; ++s) {
      shards.push_back(ShardProcess::Start({s, shard_count}));
    }
    ClusterRouter router(TopologyOf(shards, shard_count));
    ASSERT_TRUE(router.Start().ok());
    TcpServer front(router);
    ASSERT_TRUE(front.Start(0).ok());
    auto client = ServeClient::Connect("127.0.0.1", front.port());
    ASSERT_TRUE(client.ok()) << client.status();

    // The scatter-gather path (retexpan) over every dataset query, by
    // index — the client cannot tell the cluster from one process.
    const size_t check = std::min<size_t>(queries.size(), 4);
    for (size_t q = 0; q < check; ++q) {
      const auto remote =
          client->ExpandByIndex("retexpan", static_cast<uint32_t>(q), kK);
      ASSERT_TRUE(remote.ok()) << remote.status();
      EXPECT_EQ(*remote, Reference("retexpan", queries[q], kK))
          << "shards=" << shard_count << " query=" << q;
    }
    // Explicit-seed wire shape, with the negative-seed rerank phase
    // guaranteed live.
    const auto reranked = client->ExpandQuery("retexpan", neg_query, kK);
    ASSERT_TRUE(reranked.ok()) << reranked.status();
    EXPECT_EQ(*reranked, Reference("retexpan", neg_query, kK))
        << "shards=" << shard_count;
    // Seeds outside every dataset query: shards score on the full store,
    // so any seeds rank exactly as in one process. The same holds with no
    // positive seed and with a positive seed the store lacks.
    for (const Query& query : {target_query, no_pos_query,
                               absent_seed_query}) {
      const auto seeded = client->ExpandQuery("retexpan", query, kK);
      ASSERT_TRUE(seeded.ok()) << seeded.status();
      EXPECT_EQ(*seeded, Reference("retexpan", query, kK))
          << "shards=" << shard_count
          << " pos_seeds=" << query.pos_seeds.size();
    }
    // Non-scatter methods proxy whole to one replica, same answer.
    const auto proxied = client->ExpandByIndex("setexpan", 0, kK);
    ASSERT_TRUE(proxied.ok()) << proxied.status();
    EXPECT_EQ(*proxied, Reference("setexpan", queries[0], kK))
        << "shards=" << shard_count;
    // Validation failures surface as typed statuses through the router.
    EXPECT_EQ(client->ExpandByIndex("bogus", 0, 5).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(client
                  ->ExpandByIndex("retexpan",
                                  static_cast<uint32_t>(queries.size() + 99),
                                  5)
                  .status()
                  .code(),
              StatusCode::kOutOfRange);

    client->Close();
    front.Shutdown();
    router.Drain();
    for (auto& shard : shards) shard->server->Shutdown();
  }
}

TEST(ClusterTest, RouterFailsOverWhenAReplicaDies) {
  const auto& queries = TestPipeline().dataset().queries;
  constexpr int kK = 15;
  const std::vector<EntityId> want = Reference("retexpan", queries[0], kK);

  // Two replicas of a single shard.
  std::vector<std::unique_ptr<ShardProcess>> replicas;
  replicas.push_back(ShardProcess::Start({0, 1}));
  replicas.push_back(ShardProcess::Start({0, 1}));
  ClusterRouter router(TopologyOf(replicas, /*shard_count=*/1));
  ASSERT_TRUE(router.Start().ok());

  ExpandRequest request{"retexpan", queries[0], kK, -1};
  ExpandResult before = router.Expand(request);
  ASSERT_TRUE(before.status.ok()) << before.status;
  EXPECT_EQ(before.ranking, want);

  // Kill replica 0 outright. The next requests must fail over to
  // replica 1 without surfacing an error, and keep the exact ranking.
  replicas[0]->server->Shutdown();
  for (int i = 0; i < 6; ++i) {
    ExpandResult after = router.Expand(request);
    ASSERT_TRUE(after.status.ok()) << "request " << i << ": "
                                   << after.status;
    EXPECT_EQ(after.ranking, want);
  }
  EXPECT_FALSE(router.replica_state(0).reachable);

  // The scatter plane is for shards only; the router itself refuses it.
  EXPECT_EQ(router.ScatterRetrieve(queries[0], 10).status().code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(router.ScatterScore(queries[0], {}).status().code(),
            StatusCode::kUnimplemented);

  router.Drain();
  replicas[1]->server->Shutdown();
}

TEST(ClusterTest, AReplicaListedUnderTheWrongShardIsNeverMerged) {
  const auto& queries = TestPipeline().dataset().queries;
  constexpr int kK = 15;
  // Both processes serve slice 0 of 2, but the topology lists the second
  // as shard 1. Its positions belong to shard 0, so merging them would
  // repeat ids and lose shard 1's candidates: every retexpan request must
  // fail with a typed error instead.
  std::vector<std::unique_ptr<ShardProcess>> replicas;
  replicas.push_back(ShardProcess::Start({0, 2}));
  replicas.push_back(ShardProcess::Start({0, 2}));
  ClusterRouter router(TopologyOf(replicas, /*shard_count=*/2));
  ASSERT_TRUE(router.Start().ok());
  for (size_t q = 0; q < std::min<size_t>(queries.size(), 4); ++q) {
    const ExpandResult result = router.Expand({"retexpan", queries[q], kK, -1});
    EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition)
        << "query " << q << ": " << result.status;
    EXPECT_TRUE(result.ranking.empty());
  }
  router.Drain();
  for (auto& replica : replicas) replica->server->Shutdown();
}

// ------------------------------------------------------ Health polling.

TEST(ClusterHealthTest, PollDemotesADrainingReplicaBeforeAnyRequestReachesIt) {
  const auto& queries = TestPipeline().dataset().queries;
  std::vector<std::unique_ptr<ShardProcess>> replicas;
  replicas.push_back(ShardProcess::Start({0, 1}));
  replicas.push_back(ShardProcess::Start({0, 1}));
  ClusterRouter router(TopologyOf(replicas, /*shard_count=*/1));
  ASSERT_TRUE(router.Start().ok());
  EXPECT_FALSE(router.replica_state(0).draining);

  // Replica 0's service drains while its server stays up.
  replicas[0]->service->Drain();
  router.PollHealthNow();
  EXPECT_TRUE(router.replica_state(0).reachable);
  EXPECT_TRUE(router.replica_state(0).draining);
  EXPECT_FALSE(router.replica_state(1).draining);

  // The health order sends the request straight to replica 1: no
  // failover, and replica 0 never sees it.
  const int64_t failovers = obs::GetCounter("router.failovers").Value();
  const int64_t served0 = replicas[0]->server->requests_served();
  const ExpandResult result = router.Expand({"retexpan", queries[0], 15, -1});
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.ranking, Reference("retexpan", queries[0], 15));
  EXPECT_EQ(obs::GetCounter("router.failovers").Value(), failovers);
  EXPECT_EQ(replicas[0]->server->requests_served(), served0);

  router.Drain();
  for (auto& replica : replicas) replica->server->Shutdown();
}

TEST(ClusterHealthTest, PollOrdersABusyReplicaAfterAnIdleSibling) {
  const auto& queries = TestPipeline().dataset().queries;
  ServeConfig stalled;
  stalled.synthetic_delay_ms = 300;
  std::vector<std::unique_ptr<ShardProcess>> replicas;
  replicas.push_back(ShardProcess::Start({0, 1}, stalled));
  replicas.push_back(ShardProcess::Start({0, 1}));
  ClusterRouter router(TopologyOf(replicas, /*shard_count=*/1));
  ASSERT_TRUE(router.Start().ok());

  // Two stalled requests held on replica 0, which comes first in config
  // order.
  ExpansionService& busy = *replicas[0]->service;
  std::vector<std::future<ExpandResult>> held;
  for (int i = 0; i < 2; ++i) {
    held.push_back(std::async(std::launch::async, [&busy, &queries] {
      return busy.Expand({"setexpan", queries[0], 10, -1});
    }));
  }
  for (int spin = 0; spin < 2000 && busy.inflight() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  router.PollHealthNow();
  EXPECT_GE(router.replica_state(0).load, 2);
  EXPECT_EQ(router.replica_state(1).load, 0);

  // A proxied request goes to the idle replica.
  const int64_t served0 = replicas[0]->server->requests_served();
  const int64_t served1 = replicas[1]->server->requests_served();
  const ExpandResult proxied = router.Expand({"setexpan", queries[0], 10, -1});
  ASSERT_TRUE(proxied.status.ok()) << proxied.status;
  EXPECT_EQ(proxied.ranking, Reference("setexpan", queries[0], 10));
  EXPECT_EQ(replicas[0]->server->requests_served(), served0);
  EXPECT_EQ(replicas[1]->server->requests_served(), served1 + 1);
  for (auto& future : held) ASSERT_TRUE(future.get().status.ok());

  router.Drain();
  for (auto& replica : replicas) replica->server->Shutdown();
}

TEST(ClusterHealthTest, AShedDemotesALiveReplicaAndKeepsItsConnection) {
  // Replica 0 has two slots and lets nobody wait. With both slots held, a
  // proxied request is shed there: a well-formed refusal, so the router
  // demotes replica 0 (draining), keeps it reachable and keeps its pooled
  // connection, and fails over to replica 1.
  const auto& queries = TestPipeline().dataset().queries;
  ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(2).ok());
  {
    ServeConfig refusing;
    refusing.max_queue = 0;
    refusing.synthetic_delay_ms = 200;
    std::vector<std::unique_ptr<ShardProcess>> replicas;
    replicas.push_back(ShardProcess::Start({0, 1}, refusing));
    replicas.push_back(ShardProcess::Start({0, 1}));
    ClusterRouter router(TopologyOf(replicas, /*shard_count=*/1));
    ASSERT_TRUE(router.Start().ok());
    const std::vector<EntityId> want = Reference("setexpan", queries[0], 10);

    ExpansionService& busy = *replicas[0]->service;
    std::vector<std::future<ExpandResult>> held;
    for (int i = 0; i < 2; ++i) {
      held.push_back(std::async(std::launch::async, [&busy, &queries] {
        return busy.Expand({"setexpan", queries[0], 10, -1});
      }));
    }
    for (int spin = 0; spin < 2000 && busy.inflight() < 2; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const int64_t failovers = obs::GetCounter("router.failovers").Value();
    const ExpandResult failed_over =
        router.Expand({"setexpan", queries[0], 10, -1});
    ASSERT_TRUE(failed_over.status.ok()) << failed_over.status;
    EXPECT_EQ(failed_over.ranking, want);
    EXPECT_EQ(obs::GetCounter("router.failovers").Value(), failovers + 1);
    EXPECT_TRUE(router.replica_state(0).reachable);
    EXPECT_TRUE(router.replica_state(0).draining);
    for (auto& future : held) ASSERT_TRUE(future.get().status.ok());

    // Once a poll sees it idle, replica 0 leads again and serves on the
    // connection the shed left in the pool: no new connection.
    router.PollHealthNow();
    EXPECT_FALSE(router.replica_state(0).draining);
    const int64_t accepted = replicas[0]->server->connections_accepted();
    const int64_t served = replicas[0]->server->requests_served();
    const ExpandResult pooled = router.Expand({"setexpan", queries[0], 10, -1});
    ASSERT_TRUE(pooled.status.ok()) << pooled.status;
    EXPECT_EQ(pooled.ranking, want);
    EXPECT_EQ(replicas[0]->server->requests_served(), served + 1);
    EXPECT_EQ(replicas[0]->server->connections_accepted(), accepted);

    router.Drain();
    for (auto& replica : replicas) replica->server->Shutdown();
  }
  ASSERT_TRUE(ThreadPool::SetGlobalThreadCount(0).ok());
}

TEST(ClusterHealthTest, PollerReportsGenerationsAndSeesAStoppedReplica) {
  // Replica 1 serves a host that has swapped once, so it reports
  // generation 2; replica 0 reports its boot generation 1.
  std::vector<std::unique_ptr<ShardProcess>> replicas;
  replicas.push_back(ShardProcess::Start({0, 1}));
  ExpansionService first(TestPipeline(), ServeConfig{});
  ExpansionService second(TestPipeline(), ServeConfig{});
  ServiceHost host;
  host.Install(ServiceHost::Borrow(first));
  host.Install(ServiceHost::Borrow(second));
  TcpServer swapped(static_cast<Frontend&>(host));
  ASSERT_TRUE(swapped.Start(0).ok());

  RouterConfig config = TopologyOf(replicas, /*shard_count=*/1);
  ReplicaEndpoint endpoint;
  endpoint.port = swapped.port();
  config.replicas.push_back(endpoint);
  config.health_poll_ms = 20;  // the poller thread, not PollHealthNow
  ClusterRouter router(std::move(config));
  ASSERT_TRUE(router.Start().ok());
  EXPECT_EQ(router.replica_state(0).generation, 1u);
  EXPECT_EQ(router.replica_state(1).generation, 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(router.replica_state(i).reachable) << i;
    EXPECT_FALSE(router.replica_state(i).draining) << i;
  }

  // Stop replica 0: with no request sent, the poller marks it unreachable.
  replicas[0]->server->Shutdown();
  for (int spin = 0; spin < 1000 && router.replica_state(0).reachable;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_FALSE(router.replica_state(0).reachable);
  EXPECT_TRUE(router.replica_state(1).reachable);

  router.Drain();
  swapped.Shutdown();
}

TEST(ClusterHealthTest, PollsReuseOneConnectionAndServeNoRequests) {
  std::vector<std::unique_ptr<ShardProcess>> replicas;
  replicas.push_back(ShardProcess::Start({0, 1}));
  TcpServer& server = *replicas[0]->server;
  const int64_t accepted = server.connections_accepted();
  const int64_t served = server.requests_served();
  const int64_t net_requests = obs::GetCounter("serve.net.requests").Value();
  ClusterRouter router(TopologyOf(replicas, /*shard_count=*/1));
  ASSERT_TRUE(router.Start().ok());
  for (int i = 0; i < 5; ++i) router.PollHealthNow();
  EXPECT_TRUE(router.replica_state(0).reachable);
  EXPECT_EQ(router.replica_state(0).generation, 1u);
  EXPECT_LE(server.connections_accepted(), accepted + 1);
  EXPECT_EQ(server.requests_served(), served);
  EXPECT_EQ(obs::GetCounter("serve.net.requests").Value(), net_requests);

  router.Drain();
  server.Shutdown();
}

TEST(ClusterHealthTest, PollRedialsAReplicaRestartedOnItsPort) {
  std::vector<std::unique_ptr<ShardProcess>> replicas;
  replicas.push_back(ShardProcess::Start({0, 1}));
  const int port = replicas[0]->server->port();
  ClusterRouter router(TopologyOf(replicas, /*shard_count=*/1));
  ASSERT_TRUE(router.Start().ok());
  ASSERT_TRUE(router.replica_state(0).reachable);

  // The replica goes away and comes back on the same port: the kept
  // health connection is stale, but the replica is up, and one poll says
  // so over a fresh connection.
  replicas[0]->server->Shutdown();
  std::unique_ptr<ShardProcess> restarted = std::make_unique<ShardProcess>();
  restarted->service =
      std::make_unique<ExpansionService>(TestPipeline(), ServeConfig{});
  ASSERT_TRUE(restarted->service->EnableSharding({0, 1}).ok());
  restarted->server = std::make_unique<TcpServer>(*restarted->service);
  ASSERT_TRUE(restarted->server->Start(port).ok());
  router.PollHealthNow();
  EXPECT_TRUE(router.replica_state(0).reachable);
  EXPECT_EQ(restarted->server->connections_accepted(), 1);

  router.Drain();
  restarted->server->Shutdown();
}

// ------------------------------------------------- ServiceHost hot swap.

TEST(ServiceHostTest, EmptyHostAnswersUnavailable) {
  ServiceHost host;
  EXPECT_EQ(host.generation_id(), 0u);
  ExpandRequest request{"retexpan", Query{}, 5, -1};
  const ExpandResult result = host.Expand(request);
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status.message().find("no generation"),
            std::string::npos);
  EXPECT_EQ(host.QueryByIndex(0).status().code(), StatusCode::kUnavailable);
}

TEST(ServiceHostTest, HotSwapUnderLoadShedsNothing) {
  const auto& queries = TestPipeline().dataset().queries;
  constexpr int kK = 12;
  const std::vector<EntityId> want = Reference("retexpan", queries[0], kK);

  ExpansionService first(TestPipeline(), ServeConfig{});
  ExpansionService second(TestPipeline(), ServeConfig{});
  ServiceHost host;
  const uint64_t first_id = host.Install(ServiceHost::Borrow(first));
  EXPECT_EQ(first_id, 1u);
  EXPECT_EQ(host.swaps(), 0);  // installing the boot generation is not a swap

  TcpServer server(static_cast<Frontend&>(host));
  ASSERT_TRUE(server.Start(0).ok());

  // Load threads hammer the host over TCP while the main thread swaps
  // generations; every request must land on *a* generation and return
  // the bit-identical ranking — the swap may shed nothing.
  constexpr int kThreads = 3;
  constexpr int kPerThread = 25;
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> load;
  for (int t = 0; t < kThreads; ++t) {
    load.emplace_back([&, t] {
      auto client = ServeClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(kPerThread);
        return;
      }
      for (int i = 0; i < kPerThread; ++i) {
        const auto ranking = client->ExpandByIndex("retexpan", 0, kK);
        if (!ranking.ok()) {
          failures.fetch_add(1);
        } else if (*ranking != want) {
          mismatches.fetch_add(1);
        }
      }
      client->Close();
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const uint64_t second_id = host.Install(ServiceHost::Borrow(second));
  for (std::thread& thread : load) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(second_id, 2u);
  EXPECT_EQ(host.generation_id(), 2u);
  EXPECT_EQ(host.swaps(), 1);

  // Post-swap requests run on the new generation and stay correct.
  auto client = ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  const auto after = client->ExpandByIndex("retexpan", 0, kK);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*after, want);
  client->Close();
  server.Shutdown();
}

}  // namespace
}  // namespace serve
}  // namespace ultrawiki
