// serve-retexpan: the built uw_serve (and, in traced runs, a uw_router
// cluster) as child processes, driven over loopback by at most four
// client lanes, every reply checked against the offline ranking of the
// same build.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <thread>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "workloads.h"

namespace uwbench {
namespace {

using ultrawiki::Pipeline;
namespace serve = ultrawiki::serve;

// Distinct requests per seed: enough that each seed's mix of cheap and
// heavy queries is representative, so runs on different seeds agree.
constexpr int kRequestPool = 2048;
constexpr int kSetupRepeats = 3;
constexpr int kBootTimeoutMs = 60000;

/// One loopback connection speaking the framed protocol directly, so it
/// can pipeline (send at due time, read replies as they come) and stamp
/// its own trace ids.
class WireLane : public Lane {
 public:
  explicit WireLane(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
    if (fd_ >= 0) {
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
  }
  ~WireLane() override {
    if (fd_ >= 0) ::close(fd_);
  }
  WireLane(const WireLane&) = delete;
  WireLane& operator=(const WireLane&) = delete;

  bool connected() const { return fd_ >= 0; }
  int fd() const override { return fd_; }

  StatusOr<Ranking> Call(const Request& request) override {
    const Status sent = Send(request);
    if (!sent.ok()) return sent;
    return Receive();
  }

  Status Send(const Request& request) override {
    return SendTraced(request, 0, false);
  }

  Status SendTraced(const Request& request, uint64_t trace_id, bool force) {
    if (fd_ < 0) return Status::Unavailable("not connected");
    serve::WireRequest wire;
    wire.request_id = next_id_++;
    wire.method = request.method;
    wire.k = kRankingK;
    wire.by_index = false;
    wire.query = request.query;
    serve::FrameOptions frame;
    frame.trace_id = trace_id;
    frame.flags = force ? serve::kFrameFlagSample : 0;
    const std::string encoded = serve::EncodeRequestFrame(wire, frame);
    return serve::WriteAll(fd_, encoded.data(), encoded.size());
  }

  StatusOr<Ranking> Receive() override {
    if (fd_ < 0) return Status::Unavailable("not connected");
    StatusOr<serve::Frame> frame = serve::ReadFrame(fd_);
    if (!frame.ok()) return Status::Internal(frame.status().ToString());
    if (frame->kind != serve::FrameKind::kExpandResponse) {
      return Status::Internal("unexpected frame kind");
    }
    serve::WireResponse response;
    const Status decoded =
        serve::DecodeResponsePayload(frame->payload, &response);
    if (!decoded.ok()) return Status::Internal(decoded.ToString());
    if (response.code != 0) return response.ToStatus();
    return std::move(response.ranking);
  }

 private:
  int fd_ = -1;
  uint64_t next_id_ = 1;
};

/// One server process of a deployment.
struct Server {
  std::string role;
  Child child;
  int port = 0;
  int admin_port = 0;
  std::map<std::string, std::string> env;
  std::string dump_path;
};

/// A running topology: one uw_serve, or two shards behind uw_router.
struct Deployment {
  std::vector<Server> servers;  // shards / the single server first
  Child router;
  int front_port = 0;
  double setup_s = 0;

  LaneFactory Lanes() const {
    const int port = front_port;
    return [port] { return std::make_unique<WireLane>(port); };
  }
  double PeakRssMb() const {
    double total = router.PeakRssMb();
    for (const Server& server : servers) total += server.child.PeakRssMb();
    return total;
  }
  void Stop() {
    router.Stop();
    for (Server& server : servers) server.child.Stop();
  }
};

std::string ScaleFlag(const Options& options) {
  return options.tiny() ? "--config=tiny" : "--config=bench";
}

/// Spawns one uw_serve; the port files are read later (inside the timed
/// set-up window).
StatusOr<Server> SpawnServer(const Options& options, const std::string& binary,
                             const std::string& role,
                             const std::string& cache_dir, int threads,
                             const std::string& shard,
                             const std::string& prewarm, bool traced) {
  Server server;
  server.role = role;
  const std::string base = options.work_dir + "/" + role;
  ::unlink((base + ".port").c_str());
  ::unlink((base + ".admin").c_str());
  server.dump_path = base + ".dump.json";
  ::unlink(server.dump_path.c_str());
  server.env = {
      {"UW_CACHE_DIR", cache_dir},
      {"UW_THREADS", std::to_string(threads)},
      {"UW_SERVE_PORT_FILE", base + ".port"},
      {"UW_ADMIN_PORT", "0"},
      {"UW_ADMIN_PORT_FILE", base + ".admin"},
      {"UW_METRICS_DUMP_PATH", server.dump_path},
      {"UW_TRACE", traced ? "1" : "0"},
      {"UW_TRACE_SAMPLE", traced ? "1" : "0"},
      {"UW_SLOW_QUERY_LOG", traced ? "1000000" : "16"},
  };
  StatusOr<Child> child = Child::Spawn(
      {options.bin_dir + "/" + binary, ScaleFlag(options), "--port=0",
       "--shard=" + shard, "--prewarm=" + prewarm},
      server.env, base + ".log");
  if (!child.ok()) return child.status();
  server.child = std::move(*child);
  return server;
}

/// Sends `probe` until an OK reply arrives (a booting topology refuses
/// connections or answers Unavailable); true when that reply is correct.
bool ProbeUntilServed(int port, const Request& probe, Checker& checker,
                      const Clock::time_point deadline) {
  Status last = Status::Unavailable("never connected");
  while (Clock::now() < deadline) {
    WireLane lane(port);
    if (lane.connected()) {
      const StatusOr<Ranking> got = lane.Call(probe);
      if (got.ok()) return checker.Check(probe, got);
      last = got.status();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::fprintf(stderr, "[uw_bench] %s probe never served: %s\n",
               probe.method.c_str(), last.ToString().c_str());
  return false;
}

/// Boots the workload's topology and times it from the first spawn to
/// the first correct reply of every probe.
StatusOr<Deployment> Boot(const Options& options, bool cluster,
                          const std::string& cache_root, bool cold,
                          bool traced, const std::vector<Request>& probes,
                          Checker& checker) {
  if (cold) RemoveTree(cache_root);
  Deployment deployment;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::milliseconds(kBootTimeoutMs);
  const int shards = cluster ? 2 : 1;
  for (int s = 0; s < shards; ++s) {
    const std::string cache = cache_root + "/shard" + std::to_string(s);
    MakeDirs(cache);
    // Cluster shards run uwb_shard: uw_serve crashes on its first
    // genexpan request (see shard_server.cc).
    StatusOr<Server> server = SpawnServer(
        options, cluster ? "uwb_shard" : "uw_serve",
        cluster ? "shard" + std::to_string(s) : "serve", cache,
        // One pool lane per shard: the router, the shards' connection
        // handlers and the four client lanes share the other cores, so
        // cheap scatter RPCs do not queue for a CPU behind beam search.
        cluster ? 1 : 4,
        std::to_string(s) + "/" + std::to_string(shards),
        cluster ? "retexpan,genexpan" : "retexpan", traced);
    if (!server.ok()) return server.status();
    deployment.servers.push_back(std::move(*server));
  }
  std::string topology;
  for (Server& server : deployment.servers) {
    const std::string base = options.work_dir + "/" + server.role;
    server.port = WaitForPortFile(base + ".port", server.child, kBootTimeoutMs);
    server.admin_port =
        WaitForPortFile(base + ".admin", server.child, kBootTimeoutMs);
    if (server.port == 0 || server.admin_port == 0) {
      deployment.Stop();
      return Status::Internal(server.role + " did not come up; see " + base +
                              ".log");
    }
    if (!topology.empty()) topology += ",";
    topology += std::to_string(&server - deployment.servers.data()) +
                "@127.0.0.1:" + std::to_string(server.port) + "/" +
                std::to_string(server.admin_port);
  }
  deployment.front_port = deployment.servers[0].port;
  if (cluster) {
    const std::string base = options.work_dir + "/router";
    ::unlink((base + ".port").c_str());
    StatusOr<Child> router = Child::Spawn(
        {options.bin_dir + "/uw_router", "--port=0", "--shards=" + topology},
        {{"UW_ROUTER_PORT_FILE", base + ".port"}}, base + ".log");
    if (!router.ok()) {
      deployment.Stop();
      return router.status();
    }
    deployment.router = std::move(*router);
    deployment.front_port =
        WaitForPortFile(base + ".port", deployment.router, kBootTimeoutMs);
    if (deployment.front_port == 0) {
      deployment.Stop();
      return Status::Internal("router did not come up; see " + base + ".log");
    }
  }
  for (const Request& probe : probes) {
    if (!ProbeUntilServed(deployment.front_port, probe, checker, deadline)) {
      deployment.Stop();
      return Status::Internal("first reply to a " + probe.method +
                              " probe was wrong or missing");
    }
  }
  deployment.setup_s = SecondsSince(start);
  return deployment;
}

/// SIGUSR1 the server and wait for its metrics + profile dump.
std::string DumpProfile(const Server& server) {
  // The signal handler is installed right after the admin listener
  // reports its port; give it a moment before relying on it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.child.Signal(SIGUSR1);
  for (int i = 0; i < 2500; ++i) {
    const std::string text = ReadFile(server.dump_path);
    if (!text.empty() && text.back() == '\n') {
      const size_t at = text.find("\"profile\":");
      return at == std::string::npos ? "" : text.substr(at);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return "";
}

void RecordServers(const Deployment& deployment, Fingerprint& fingerprint) {
  for (const Server& server : deployment.servers) {
    const StatusOr<std::string> statusz =
        HttpGet(server.admin_port, "/statusz");
    std::string line = statusz.ok() ? *statusz : "";
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    fingerprint.AddServer(server.role, line, server.env);
  }
}

std::unique_ptr<Pipeline> BuildReference(const Options& options, bool traced,
                                         Result& result) {
  if (traced) ultrawiki::obs::SetTraceEnabled(true);
  const auto start = Clock::now();
  // Built in place: a Pipeline holds pointers into itself, so it must
  // not be moved after Build() returns.
  std::unique_ptr<Pipeline> pipeline(
      new Pipeline(Pipeline::Build(ScaleConfig(options))));
  if (traced) {
    ultrawiki::obs::SetTraceEnabled(false);
    const std::string profile = ultrawiki::obs::ExportProfileJson(
        ultrawiki::obs::SnapshotProfile());
    double load_ns = 0;
    for (const char* stage :
         {"cache.load_world", "cache.load_encoder", "cache.load_store"}) {
      load_ns += static_cast<double>(ProfileTotalNs(profile, stage));
    }
    result.Set("setup.cache_load_s", load_ns / 1e9, "s");
  }
  std::fprintf(stderr, "[uw_bench] reference pipeline built in %.2fs\n",
               SecondsSince(start));
  return pipeline;
}

struct TracedCall {
  uint64_t trace_id = 0;
  double rtt_us = 0;
};

/// Closed loop with every request force-traced under a benchmark-chosen
/// trace id, so each client round trip joins its server-side trace.
Phase ForcedTraceReplay(int port, const std::vector<Request>& requests,
                        Checker& checker, const Options& options,
                        double seconds, std::vector<TracedCall>& calls) {
  constexpr int kLanes = 4;
  Stream stream(&requests, options.seed + 17, kLanes);
  std::mutex mutex;
  Phase total;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int i = 0; i < kLanes; ++i) {
    threads.emplace_back([&, i] {
      WireLane lane(port);
      std::vector<TracedCall> mine;
      int64_t attempted = 0, failed = 0;
      for (uint64_t n = 1; Clock::now() < deadline; ++n) {
        const Request& request = stream.Next(i);
        const uint64_t trace_id = (static_cast<uint64_t>(i + 1) << 40) | n;
        const auto sent = Clock::now();
        StatusOr<Ranking> got = lane.SendTraced(request, trace_id, true).ok()
                                    ? lane.Receive()
                                    : StatusOr<Ranking>(Status::Internal("send"));
        mine.push_back({trace_id, 1000.0 * MsBetween(sent, Clock::now())});
        ++attempted;
        if (!checker.Check(request, got)) ++failed;
      }
      std::lock_guard<std::mutex> lock(mutex);
      calls.insert(calls.end(), mine.begin(), mine.end());
      total.attempted += attempted;
      total.failed += failed;
    });
  }
  for (auto& thread : threads) thread.join();
  total.seconds = SecondsSince(start);
  return total;
}

/// serve.* layers: client round trips joined with the server's own
/// request traces (/slowz), plus its counters (/metrics).
void ServeLayers(const Server& server, const std::vector<TracedCall>& calls,
                 Result& result) {
  const StatusOr<std::string> slowz = HttpGet(server.admin_port, "/slowz");
  std::map<uint64_t, ServerTrace> by_id;
  if (slowz.ok()) {
    for (ServerTrace& trace : ParseSlowz(*slowz)) {
      by_id[trace.trace_id] = std::move(trace);
    }
  }
  Samples wire, queue, batch, execute, rtt;
  for (const TracedCall& call : calls) {
    const auto it = by_id.find(call.trace_id);
    if (it == by_id.end()) continue;
    const ServerTrace& trace = it->second;
    rtt.Add(call.rtt_us);
    wire.Add(std::max(0.0, call.rtt_us - static_cast<double>(trace.total_us)));
    const auto stage = [&trace](const char* name) {
      const auto found = trace.stage_us.find(name);
      return found == trace.stage_us.end() ? 0.0
                                           : static_cast<double>(found->second);
    };
    queue.Add(stage("queue_wait"));
    batch.Add(stage("batch_wait"));
    execute.Add(stage("execute"));
  }
  std::fprintf(stderr, "[uw_bench] %s: %zu of %zu traced calls joined\n",
               server.role.c_str(), rtt.size(), calls.size());
  const double e2e = std::max(1e-9, rtt.Mean());
  const struct {
    const char* name;
    const Samples& samples;
  } stages[] = {{"serve.wire_us", wire},
                {"serve.queue_wait_us", queue},
                {"serve.batch_wait_us", batch},
                {"serve.execute_us", execute}};
  for (const auto& stage : stages) {
    result.Set(std::string(stage.name) + ".p50", stage.samples.Pct(0.5), "us");
    result.Set(std::string(stage.name) + ".p99", stage.samples.Pct(0.99),
               "us");
    result.Layer(stage.name, stage.samples, stage.samples.Mean() / e2e,
                 "1 request");
  }

  const StatusOr<std::string> metrics = HttpGet(server.admin_port, "/metrics");
  if (!metrics.ok()) return;
  const double batches = PromValue(*metrics, "uw_serve_batch_size_count");
  result.Set("serve.batch_size.mean",
             batches > 0 ? PromValue(*metrics, "uw_serve_batch_size_sum") /
                               batches
                         : 0,
             "count");
  result.Set("serve.shed", PromValue(*metrics, "uw_serve_shed"), "count");
  result.Set("serve.timeout", PromValue(*metrics, "uw_serve_timeout"), "count");
  result.Set("serve.net.protocol_errors",
             PromValue(*metrics, "uw_serve_net_protocol_errors"), "count");
  const double tasks = PromValue(*metrics, "uw_pool_tasks_run");
  result.Set("pool.steals_per_task",
             tasks > 0 ? PromValue(*metrics, "uw_pool_steals") / tasks : 0,
             "ratio");
}

/// router.* layers: the same stream through an in-process ClusterRouter
/// over the running shards, each retexpan request also replayed as the
/// shard RPCs the router makes (ScatterRetrieve + ScatterScore per shard).
void RouterLayers(const Deployment& deployment,
                  const std::vector<Request>& requests, Checker& checker,
                  const Options& options, double seconds, Result& result) {
  serve::RouterConfig config;
  config.shard_count = static_cast<int>(deployment.servers.size());
  for (size_t s = 0; s < deployment.servers.size(); ++s) {
    serve::ReplicaEndpoint endpoint;
    endpoint.shard = static_cast<int>(s);
    endpoint.port = deployment.servers[s].port;
    endpoint.admin_port = deployment.servers[s].admin_port;
    config.replicas.push_back(endpoint);
  }
  const size_t recall_size = static_cast<size_t>(
      std::max(kRankingK, config.retexpan.initial_list_size));
  serve::ClusterRouter router(config);
  if (!router.Start().ok()) {
    result.Fail("in-process router did not start");
    return;
  }
  const int64_t failovers_before =
      ultrawiki::obs::GetCounter("router.failovers").Value();

  constexpr int kLanes = 4;
  Stream stream(&requests, options.seed + 29, kLanes);
  std::mutex mutex;
  Samples expand_us, proxy_us, rpc_us, self_us;
  int64_t attempted = 0, failed = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int i = 0; i < kLanes; ++i) {
    threads.emplace_back([&, i] {
      std::vector<serve::ServeClient> shards;
      for (const Server& server : deployment.servers) {
        StatusOr<serve::ServeClient> client =
            serve::ServeClient::Connect("127.0.0.1", server.port);
        if (client.ok()) shards.push_back(std::move(*client));
      }
      Samples my_expand, my_proxy, my_rpc, my_self;
      int64_t my_attempted = 0, my_failed = 0;
      while (Clock::now() < deadline) {
        const Request& request = stream.Next(i);
        serve::ExpandRequest expand;
        expand.method = request.method;
        expand.query = request.query;
        expand.k = kRankingK;
        const auto start = Clock::now();
        serve::ExpandResult got = router.Expand(expand);
        const double took_us = 1000.0 * MsBetween(start, Clock::now());
        ++my_attempted;
        const StatusOr<Ranking> ranking =
            got.status.ok() ? StatusOr<Ranking>(std::move(got.ranking))
                            : StatusOr<Ranking>(got.status);
        if (!checker.Check(request, ranking)) ++my_failed;
        if (request.method != "retexpan") {
          my_proxy.Add(took_us);
          continue;
        }
        my_expand.Add(took_us);
        double slowest = 0;
        for (serve::ServeClient& shard : shards) {
          const auto rpc_start = Clock::now();
          const auto retrieved = shard.ScatterRetrieve(request.query, recall_size);
          std::vector<EntityId> ids;
          if (retrieved.ok()) {
            for (const auto& entity : *retrieved) ids.push_back(entity.id);
          }
          const auto scored = shard.ScatterScore(request.query, ids);
          const double rpc = 1000.0 * MsBetween(rpc_start, Clock::now());
          if (!retrieved.ok() || !scored.ok()) ++my_failed;
          my_rpc.Add(rpc);
          slowest = std::max(slowest, rpc);
        }
        my_self.Add(std::max(0.0, took_us - slowest));
      }
      std::lock_guard<std::mutex> lock(mutex);
      expand_us.Append(my_expand);
      proxy_us.Append(my_proxy);
      rpc_us.Append(my_rpc);
      self_us.Append(my_self);
      attempted += my_attempted;
      failed += my_failed;
    });
  }
  for (auto& thread : threads) thread.join();
  router.Drain();
  result.Count(attempted, failed);

  result.Set("router.expand_us.p50", expand_us.Pct(0.5), "us");
  result.Set("router.expand_us.p99", expand_us.Pct(0.99), "us");
  result.Set("router.proxy_us.p50", proxy_us.Pct(0.5), "us");
  result.Set("router.proxy_us.p99", proxy_us.Pct(0.99), "us");
  result.Set("router.shard_rpc_us.p50", rpc_us.Pct(0.5), "us");
  result.Set("router.shard_rpc_us.p99", rpc_us.Pct(0.99), "us");
  result.Set("router.self_us.p50", self_us.Pct(0.5), "us");
  result.Set("router.failovers",
             static_cast<double>(
                 ultrawiki::obs::GetCounter("router.failovers").Value() -
                 failovers_before),
             "count");
  const double expand_mean = std::max(1e-9, expand_us.Mean());
  result.Layer("router.expand_us", expand_us, 1.0, "2 shard RPCs + merge");
  result.Layer("router.shard_rpc_us", rpc_us, rpc_us.Mean() / expand_mean,
               "retrieve+score");
  result.Layer("router.self_us", self_us, self_us.Mean() / expand_mean,
               "merge + rerank");
  result.Layer("router.proxy_us", proxy_us, 1.0, "1 whole proxy");
}

/// Known defect, measured rather than hidden: a shard store replicates
/// only the dataset queries' seeds, so a retexpan query whose seeds are
/// other targets of its ultra-class folds a different centroid on each
/// shard and the merged ranking differs from the single-process one.
/// The cluster workload therefore draws seeds from the replicated pool;
/// this reports the share of target-seeded queries that come back wrong.
void UnreplicatedSeedProbe(Pipeline& reference, const Deployment& deployment,
                           const Options& options, Result& result) {
  const std::vector<Request> requests = MakeDatasetRequests(
      reference, {"retexpan"}, options.seed + 101, 64, SeedPool::kTargets);
  Checker checker(OfflineRankings(reference, requests), false);
  WireLane lane(deployment.front_port);
  int wrong = 0;
  for (const Request& request : requests) {
    if (!checker.Check(request, lane.Call(request))) ++wrong;
  }
  result.Set("router.unreplicated_seed_mismatch_frac",
             static_cast<double>(wrong) / requests.size(), "ratio");
  std::fprintf(stderr,
               "[uw_bench] known defect: %d of %zu retexpan queries seeded "
               "outside the replicated seed pool differ from the "
               "single-process ranking\n",
               wrong, requests.size());
}

/// Traced serve-retexpan also boots the sharded cluster (two shards
/// behind uw_router) to time the router layers. It carries no end-to-end
/// metrics of its own: on the 4-vCPU reference host its latencies did not
/// repeat within any bound from run to run (see README.md).
void ClusterLayers(Pipeline& reference, const Options& options,
                   Result& result, Fingerprint& fingerprint) {
  const std::vector<Request> requests = MakeDatasetRequests(
      reference, {"retexpan", "genexpan"}, options.seed + 7, 256,
      SeedPool::kDatasetQuerySeeds);
  Checker checker(OfflineRankings(reference, requests), options.corrupt);
  const std::vector<Request> probes(requests.begin(), requests.begin() + 2);
  StatusOr<Deployment> cluster =
      Boot(options, /*cluster=*/true, options.work_dir + "/cluster_cache",
           /*cold=*/false, /*traced=*/false, probes, checker);
  result.Count(2, cluster.ok() ? 0 : 2);
  if (!cluster.ok()) {
    result.Fail(cluster.status().ToString());
    return;
  }
  RecordServers(*cluster, fingerprint);
  RouterLayers(*cluster, requests, checker, options, 0.25 * options.seconds,
               result);
  UnreplicatedSeedProbe(reference, *cluster, options, result);
  cluster->Stop();
}

}  // namespace

void RunServeRetexpan(const Options& options, Result& result,
                      Fingerprint& fingerprint) {
  std::unique_ptr<Pipeline> reference =
      BuildReference(options, options.trace, result);
  const std::vector<Request> requests = MakeDatasetRequests(
      *reference, {"retexpan"}, options.seed, kRequestPool, SeedPool::kTargets);
  Checker checker(OfflineRankings(*reference, requests), options.corrupt);
  const std::vector<Request> probes(requests.begin(), requests.begin() + 1);
  const std::string cache_root = options.work_dir + "/serve_cache";
  LoadSpec spec;
  spec.lanes = 4;
  spec.p99_limit_ms = 10;
  spec.low_rps = 340;
  spec.high_rps = 800;

  const auto boot = [&](bool cold, bool traced) -> StatusOr<Deployment> {
    StatusOr<Deployment> deployment = Boot(options, /*cluster=*/false,
                                           cache_root, cold, traced, probes,
                                           checker);
    result.Count(1, deployment.ok() ? 0 : 1);
    if (!deployment.ok()) {
      result.Fail(deployment.status().ToString());
    } else {
      std::fprintf(stderr, "[uw_bench] %s boot: %.3fs to first correct reply\n",
                   cold ? "cold" : "warm", deployment->setup_s);
    }
    return deployment;
  };

  if (!options.trace) {
    std::vector<double> cold_s;
    for (int i = 0; i < kSetupRepeats; ++i) {
      StatusOr<Deployment> deployment = boot(/*cold=*/true, false);
      if (!deployment.ok()) return;
      cold_s.push_back(deployment->setup_s);
      deployment->Stop();
    }
    // One warm restart: the instance then measured.
    StatusOr<Deployment> live = boot(/*cold=*/false, false);
    if (!live.ok()) return;
    result.Set("setup_s", Median(cold_s), "s");
    result.Set("restart_s", live->setup_s, "s");
    RecordServers(*live, fingerprint);
    MeasureServing(live->Lanes(), spec, requests, checker, options, result);
    result.Set("peak_rss_mb", live->PeakRssMb(), "MiB");
    result.Set("recall_at_50", checker.RecallAt50(), "ratio");
    live->Stop();
    return;
  }

  // Traced pass: the server with UW_TRACE=1 / UW_TRACE_SAMPLE=1, booted
  // cold so its profile carries the set-up stages.
  const double budget = options.seconds;
  StatusOr<Deployment> traced = boot(/*cold=*/true, /*traced=*/true);
  if (!traced.ok()) return;
  RecordServers(*traced, fingerprint);
  SetupLayersFromProfile(DumpProfile(traced->servers[0]), result);
  std::vector<TracedCall> calls;
  const Phase replay = ForcedTraceReplay(traced->servers[0].port, requests,
                                         checker, options, 0.25 * budget, calls);
  result.Count(replay.attempted, replay.failed);
  ServeLayers(traced->servers[0], calls, result);
  Stream stream(&requests, options.seed, spec.lanes);
  const Phase open = RunOpenLoop(traced->Lanes(), spec.lanes, stream, checker,
                                 spec.low_rps, 0.1 * budget, options.seed);
  result.Count(open.attempted, open.failed);
  result.Set("gen.late_ms.p99", open.late_ms.Pct(0.99), "ms");
  traced->Stop();

  // The same closed loop against an untraced warm boot: tracing overhead.
  StatusOr<Deployment> plain = boot(/*cold=*/false, /*traced=*/false);
  if (!plain.ok()) return;
  const Phase untraced = RunClosedLoop(plain->Lanes(), spec.lanes, stream,
                                       checker, 0.2 * budget);
  result.Count(untraced.attempted, untraced.failed);
  plain->Stop();
  result.Set("trace.overhead_frac",
             untraced.qps() > 0 ? 1.0 - replay.qps() / untraced.qps() : 0,
             "ratio");
  std::fprintf(stderr,
               "[uw_bench] closed-loop qps traced %.1f vs untraced %.1f\n",
               replay.qps(), untraced.qps());
  ReplayExpandLayers(*reference, requests, result);
  ClusterLayers(*reference, options, result, fingerprint);
  ReplayPaperMethodLayers(*reference, options, result);
}

}  // namespace uwbench
