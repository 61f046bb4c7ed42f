// uwb_shard — the shard server of the cluster the traced serve-retexpan
// run boots.
//
//   uwb_shard --config=tiny|bench --shard=I/N --prewarm=m1,m2
//
// The same serving stack as uw_serve (ExpansionService + TcpServer +
// AdminServer over a ServiceHost, the same UW_* knobs and port files,
// SIGINT/SIGTERM drain), with one difference: the Pipeline is
// constructed in place. uw_serve moves the
// Pipeline Build() returns into the heap, which leaves its LM similarity
// pointing into the destroyed temporary, so its first genexpan request
// crashes the process. The cluster proxies genexpan to its shards, so
// they run this binary until uw_serve is fixed.

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "serve/admin.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/service_host.h"
#include "workloads.h"

namespace {

using namespace ultrawiki;

int g_signal_pipe[2] = {-1, -1};

void HandleSignal(int /*signum*/) {
  const char byte = 1;
  [[maybe_unused]] ssize_t written = ::write(g_signal_pipe[1], &byte, 1);
}

std::string Flag(int argc, char** argv, const std::string& name,
                 const std::string& fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return fallback;
}

void WritePortFile(const char* env, int port) {
  const char* path = std::getenv(env);
  if (path == nullptr) return;
  if (std::FILE* file = std::fopen(path, "w")) {
    std::fprintf(file, "%d\n", port);
    std::fclose(file);
  }
}

}  // namespace

int main(int argc, char** argv) {
  uwbench::Options options;
  options.scale = Flag(argc, argv, "config", "tiny");
  const std::string shard_flag = Flag(argc, argv, "shard", "0/1");
  ShardSpec shard;
  shard.index = std::atoi(shard_flag.c_str());
  shard.count = std::atoi(shard_flag.substr(shard_flag.find('/') + 1).c_str());
  if (!shard.valid()) {
    std::fprintf(stderr, "bad --shard=%s\n", shard_flag.c_str());
    return 2;
  }
  std::unique_ptr<Pipeline> pipeline(
      new Pipeline(Pipeline::Build(uwbench::ScaleConfig(options))));
  auto service = std::make_unique<serve::ExpansionService>(*pipeline);
  Status status = service->EnableSharding(shard);
  if (status.ok()) {
    status = service->PrewarmMethods(
        SplitString(Flag(argc, argv, "prewarm", "retexpan"), ','));
  }
  if (!status.ok()) {
    std::fprintf(stderr, "[uwb_shard] %s\n", status.ToString().c_str());
    return 2;
  }
  serve::ServiceHost host;
  host.Install(serve::ServiceHost::Own(std::move(pipeline), std::move(service)));

  if (::pipe(g_signal_pipe) != 0) return 1;
  struct sigaction action{};
  action.sa_handler = HandleSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  serve::TcpServer server(host);
  serve::AdminServer admin(host);
  if (!server.Start(0).ok() || !admin.Start(0).ok()) return 1;
  std::printf("listening on port %d, admin on port %d\n", server.port(),
              admin.port());
  std::fflush(stdout);
  WritePortFile("UW_ADMIN_PORT_FILE", admin.port());
  WritePortFile("UW_SERVE_PORT_FILE", server.port());

  while (true) {
    char byte = 0;
    const ssize_t got = ::read(g_signal_pipe[0], &byte, 1);
    if (got < 0 && errno == EINTR) continue;
    break;
  }
  server.Shutdown();
  admin.Shutdown();
  std::printf("drained cleanly: requests=%lld protocol_errors=%lld\n",
              static_cast<long long>(server.requests_served()),
              static_cast<long long>(server.protocol_errors()));
  return 0;
}
