// uw_serve — the single-binary online expansion server (standalone or
// one shard of the serving cluster).
//
//   $ ./uw_serve [--port=N] [--config=tiny|bench] [--scale=S]
//                [--prewarm=m1,m2,...] [--shard=I/N]
//
// Builds the pipeline once (warm-started from UW_CACHE_DIR when set),
// then serves framed TCP queries (serve/protocol.h), each run on its
// connection's thread in one of UW_THREADS execution slots, with
// admission control (serve/service.h knobs: UW_SERVE_QUEUE,
// UW_SERVE_TIMEOUT_MS, UW_TRACE_SAMPLE, UW_SLOW_QUERY_MS). `--port=0`
// (default UW_SERVE_PORT or 0) binds an ephemeral port; a port outside
// 0..65535 or with trailing garbage exits 1; a `--scale` that is not a
// finite number above 0 (`abc`, `0.12x`) exits 2, and so does any
// `--scale` given with `--config=bench`, whose scale is fixed. The bound
// port is printed to stdout as "listening on port N" and, when
// UW_SERVE_PORT_FILE is set, written to that path for scripts.
//
// `--shard=I/N` scopes the scatter plane (serve/router.h) to shard I of
// an N-way candidate partition: the process answers ShardRetrieve for
// its slice (and ShardScore for any ids) off its full store while still
// serving every full expansion method.
//
// When UW_ADMIN_PORT is set, a second listener serves the live admin
// endpoint (serve/admin.h): /metrics, /healthz, /statusz, /slow, /slowz.
// Its bound port is reported as "admin on port N" and written to
// UW_ADMIN_PORT_FILE when set. Cluster shards need no admin port: the
// router polls the Health call on the request port.
//
// SIGINT/SIGTERM trigger a graceful drain: stop accepting, serve every
// admitted request, report lifetime stats, exit 0. SIGUSR1 dumps a
// metrics + profile snapshot to UW_METRICS_DUMP_PATH (default
// "uw_serve_metrics.json") and keeps serving. SIGHUP hot-swaps to a
// fresh generation: the pipeline is rebuilt (warm from the artifact
// cache), prewarmed, and atomically installed — new requests land on the
// new generation while in-flight ones finish on the old, which then
// drains and frees; zero requests are shed by the swap.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unistd.h>
#include <vector>

#include "common/env.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "io/artifact_cache.h"
#include "obs/export.h"
#include "serve/admin.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/service_host.h"

namespace {

using namespace ultrawiki;

// Self-pipe: handlers only write one byte naming the signal; the main
// thread blocks on the read end and runs the (non-async-signal-safe)
// reaction itself — drain for SIGINT/SIGTERM, a metrics dump for
// SIGUSR1, a generation hot swap for SIGHUP.
int g_signal_pipe[2] = {-1, -1};

constexpr char kDrainByte = 1;
constexpr char kDumpByte = 'u';
constexpr char kReloadByte = 'h';

void HandleSignal(int signum) {
  const char byte = signum == SIGUSR1  ? kDumpByte
                    : signum == SIGHUP ? kReloadByte
                                       : kDrainByte;
  [[maybe_unused]] ssize_t written = ::write(g_signal_pipe[1], &byte, 1);
}

// SIGUSR1 reaction: the same {"metrics": ..., "profile": ...} shape the
// benches snapshot, written atomically enough for a tail -f (single
// write + newline).
void DumpMetricsSnapshot() {
  const char* env = std::getenv("UW_METRICS_DUMP_PATH");
  const std::string path = env != nullptr ? env : "uw_serve_metrics.json";
  std::string json = "{\"metrics\":";
  json += obs::ExportMetricsJson(obs::SnapshotMetrics());
  json += ",\"profile\":";
  json += obs::ExportProfileJson(obs::SnapshotProfile());
  json += "}\n";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "[uw_serve] cannot open metrics dump path %s\n",
                 path.c_str());
    return;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), file) ==
                  json.size();
  std::fclose(file);
  std::fprintf(stderr, "[uw_serve] %s metrics snapshot to %s\n",
               ok ? "wrote" : "short write of", path.c_str());
}

// "--shard=I/N" → {I, N}. Strict: both parts must be integers.
bool ParseShardFlag(const std::string& value, ShardSpec* spec) {
  const size_t slash = value.find('/');
  if (slash == std::string::npos) return false;
  const std::optional<int> index = ParseIntStrict(value.substr(0, slash));
  const std::optional<int> count = ParseIntStrict(value.substr(slash + 1));
  if (!index.has_value() || !count.has_value()) return false;
  spec->index = *index;
  spec->count = *count;
  return spec->valid();
}

// One serving generation: pipeline (warm from the artifact cache on
// reloads), service, shard scope, prewarm. Shared by boot and SIGHUP.
std::shared_ptr<serve::ServiceHost::Generation> BuildGeneration(
    const PipelineConfig& config, const ShardSpec& shard,
    const std::vector<std::string>& prewarm) {
  std::unique_ptr<Pipeline> pipeline(new Pipeline(Pipeline::Build(config)));
  auto service = std::make_unique<serve::ExpansionService>(*pipeline);
  const Status sharded = service->EnableSharding(shard);
  if (!sharded.ok()) {
    std::fprintf(stderr, "[uw_serve] sharding failed: %s\n",
                 sharded.ToString().c_str());
    return nullptr;
  }
  if (!prewarm.empty()) {
    const Status warmed = service->PrewarmMethods(prewarm);
    if (!warmed.ok()) {
      std::fprintf(stderr, "[uw_serve] prewarm failed: %s\n",
                   warmed.ToString().c_str());
      return nullptr;
    }
  }
  return serve::ServiceHost::Own(std::move(pipeline), std::move(service));
}

}  // namespace

int main(int argc, char** argv) {
  const char* port_env = std::getenv("UW_SERVE_PORT");
  const std::string port_text =
      FlagValue(argc, argv, "port", port_env != nullptr ? port_env : "0");
  const std::optional<int> port = ParsePortStrict(port_text);
  if (!port.has_value()) {
    std::fprintf(stderr, "bad port \"%s\" (expected 0..65535)\n",
                 port_text.c_str());
    return 1;
  }
  const char* admin_port_env = std::getenv("UW_ADMIN_PORT");
  std::optional<int> admin_port;
  if (admin_port_env != nullptr) {
    admin_port = ParsePortStrict(admin_port_env);
    if (!admin_port.has_value()) {
      std::fprintf(stderr, "bad UW_ADMIN_PORT=%s (expected 0..65535)\n",
                   admin_port_env);
      return 1;
    }
  }
  const std::string config_name =
      FlagValue(argc, argv, "config", "tiny");
  const std::string scale_text = FlagValue(argc, argv, "scale", "0.12");
  // Only Tiny takes a scale; the Bench profile fixes its own.
  const bool scale_given =
      std::any_of(argv + 1, argv + argc, [](const char* arg) {
        return std::string_view(arg).starts_with("--scale=");
      });
  if (scale_given && config_name == "bench") {
    std::fprintf(stderr,
                 "--scale=%s is not accepted with --config=bench\n",
                 scale_text.c_str());
    return 2;
  }
  const std::optional<double> scale = ParseDoubleStrict(scale_text);
  if (!scale.has_value() || *scale <= 0.0) {
    std::fprintf(stderr, "bad --scale=%s (expected a number > 0)\n",
                 scale_text.c_str());
    return 2;
  }
  const std::string prewarm_csv =
      FlagValue(argc, argv, "prewarm", "retexpan,setexpan");
  const std::string shard_flag = FlagValue(argc, argv, "shard", "0/1");
  ShardSpec shard;
  if (!ParseShardFlag(shard_flag, &shard)) {
    std::fprintf(stderr, "bad --shard=%s (expected I/N with 0 <= I < N)\n",
                 shard_flag.c_str());
    return 2;
  }

  PipelineConfig config;
  if (config_name == "tiny") {
    config = PipelineConfig::Tiny();
    config.generator.scale = *scale;
    config.dataset.ultra_class_scale = *scale;
  } else if (config_name == "bench") {
    config = PipelineConfig::Bench();
  } else {
    std::fprintf(stderr, "unknown --config=%s (tiny|bench)\n",
                 config_name.c_str());
    return 2;
  }

  std::fprintf(
      stderr,
      "[uw_serve] building pipeline (%s, shard %d/%d, %d thread(s), "
      "cache %s)\n",
      config_name.c_str(), shard.index, shard.count,
      ThreadPool::Global().thread_count(),
      ArtifactCache::Global().enabled()
          ? ArtifactCache::Global().root().c_str()
          : "disabled");
  const std::vector<std::string> prewarm = SplitString(prewarm_csv, ',');
  std::shared_ptr<serve::ServiceHost::Generation> generation =
      BuildGeneration(config, shard, prewarm);
  if (generation == nullptr) return 2;

  serve::ServiceHost host;
  host.Install(generation);

  serve::TcpServer server(host);
  const Status started = server.Start(*port);
  if (!started.ok()) {
    std::fprintf(stderr, "[uw_serve] %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("listening on port %d\n", server.port());
  std::fflush(stdout);
  WritePortFile("UW_SERVE_PORT_FILE", server.port(), "uw_serve");

  // Optional admin listener: telemetry stays off the request plane and
  // scrapeable mid-load. UW_ADMIN_PORT=0 binds an ephemeral port.
  serve::AdminServer admin(host);
  if (admin_port.has_value()) {
    const Status admin_started = admin.Start(*admin_port);
    if (!admin_started.ok()) {
      std::fprintf(stderr, "[uw_serve] admin: %s\n",
                   admin_started.ToString().c_str());
      return 1;
    }
    std::printf("admin on port %d\n", admin.port());
    std::fflush(stdout);
    WritePortFile("UW_ADMIN_PORT_FILE", admin.port(), "uw_serve");
  }
  // Drop the main thread's reference: the installed generation is now
  // kept alive by the host (and, during a future swap, by in-flight
  // requests alone).
  generation.reset();

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "[uw_serve] pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action{};
  action.sa_handler = HandleSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGUSR1, &action, nullptr);
  ::sigaction(SIGHUP, &action, nullptr);

  while (true) {
    char byte = 0;
    const ssize_t got = ::read(g_signal_pipe[0], &byte, 1);
    if (got < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "[uw_serve] signal pipe read: %s\n",
                   std::strerror(errno));
      break;
    }
    if (got == 0) break;
    if (byte == kDumpByte) {
      DumpMetricsSnapshot();
      continue;  // keep serving
    }
    if (byte == kReloadByte) {
      // Hot swap: build the next generation off-line (warm from the
      // artifact cache), then atomically flip queries onto it. The old
      // generation keeps serving its in-flight requests and drains when
      // the last one finishes — the swap sheds nothing.
      std::fprintf(stderr, "[uw_serve] SIGHUP: building next generation\n");
      std::shared_ptr<serve::ServiceHost::Generation> next =
          BuildGeneration(config, shard, prewarm);
      if (next == nullptr) {
        std::fprintf(stderr,
                     "[uw_serve] reload failed; keeping generation %llu\n",
                     static_cast<unsigned long long>(host.generation_id()));
        continue;
      }
      const uint64_t next_id = host.Install(next);
      std::printf("hot swap to generation %llu\n",
                  static_cast<unsigned long long>(next_id));
      std::fflush(stdout);
      continue;  // keep serving
    }
    break;  // SIGINT / SIGTERM
  }
  std::fprintf(stderr, "[uw_serve] signal received; draining...\n");
  // Admin stays up through the drain so /healthz reports "draining" and a
  // final /metrics scrape can observe the fully-drained totals.
  server.Shutdown();
  admin.Shutdown();
  const std::shared_ptr<serve::ServiceHost::Generation> last =
      host.Current();
  std::printf(
      "drained cleanly: connections=%lld requests=%lld protocol_errors=%lld "
      "queue_depth=%d\n",
      static_cast<long long>(server.connections_accepted()),
      static_cast<long long>(server.requests_served()),
      static_cast<long long>(server.protocol_errors()),
      last != nullptr ? last->service->queue_depth() : 0);
  return 0;
}
